"""Heralded fusion sampling and accounting.

A :class:`FusionDevice` is the single source of every simulated fusion
outcome (its ``rng`` at its ``success_rate``) and its :class:`FusionTally`
the single place #fusion (the paper's second metric) is counted.  Layer
formation, which draws in rounds, reads ``rng`` directly and records each
merge or bond orientation in one tally call; everything else goes through
the ``attempt*`` methods.  Outcomes are heralded (Section 1): the classical
control learns success/failure immediately and feeds subsequent decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import HardwareError
from repro.utils.rng import ensure_rng


@dataclass
class FusionTally:
    """Running counts of attempted fusions, by category."""

    attempted: int = 0
    succeeded: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, count: int, successes: int) -> None:
        self.attempted += count
        self.succeeded += successes
        self.by_kind[kind] = self.by_kind.get(kind, 0) + count

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    @property
    def observed_rate(self) -> float:
        """Empirical success rate (NaN until something was attempted)."""
        if self.attempted == 0:
            return float("nan")
        return self.succeeded / self.attempted

    def merge(self, other: "FusionTally") -> None:
        """Fold another tally into this one."""
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        for kind, count in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count


class FusionDevice:
    """Samples heralded fusion outcomes at the configured success rate."""

    def __init__(
        self,
        success_rate: float,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not 0.0 < success_rate <= 1.0:
            raise HardwareError(f"success rate must be in (0, 1], got {success_rate}")
        self.success_rate = success_rate
        self.rng = ensure_rng(rng)
        self.tally = FusionTally()

    def attempt(self, kind: str = "leaf-leaf") -> bool:
        """One fusion attempt; returns the heralded outcome."""
        success = bool(self.rng.random() < self.success_rate)
        self.tally.record(kind, 1, int(success))
        return success

    def attempt_batch(self, count: int, kind: str = "leaf-leaf") -> np.ndarray:
        """``count`` independent attempts as a boolean array (vectorized)."""
        if count < 0:
            raise HardwareError(f"cannot attempt {count} fusions")
        outcomes = self.rng.random(count) < self.success_rate
        self.tally.record(kind, count, int(np.count_nonzero(outcomes)))
        return outcomes

    def attempt_grid(self, shape: tuple[int, ...], kind: str) -> np.ndarray:
        """Attempts shaped like ``shape`` (used for whole-RSL bond sampling)."""
        outcomes = self.rng.random(shape) < self.success_rate
        self.tally.record(kind, outcomes.size, int(np.count_nonzero(outcomes)))
        return outcomes
