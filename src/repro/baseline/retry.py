"""Repeat-until-success execution of a OneQ plan (Section 7.1).

"Since OneQ is not able to handle fusion failures, we employ it with a
repeat-until-success strategy.  Specifically, for each RSL we conduct the
fusions instructed by OneQ repeatedly until all fusions are successful.
Subsequently, the successful RSL is fused with its preceding RSLs.  If
failures occur in the inter-RSL fusions, the entire compilation is restarted
and repeated until success."  The evaluation caps consumption at 10^6 RSLs
(the ``> 10^6`` rows of Table 2).

Each per-RSL retry consumes a fresh RSL (the destroyed photons cannot be
reused); retries are sampled geometrically from the all-fusions-succeed
probability ``p^f``, which is exact and keeps exploding runs cheap to
simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.baseline.oneq import OneQPlan
from repro.errors import BaselineExploded
from repro.utils.rng import ensure_rng

#: The paper's evaluation cap on consumed resource state layers.
DEFAULT_RSL_CAP = 10**6


@dataclass
class BaselineResult:
    """OneQ's consumption for one program (Table 2's left columns)."""

    rsl_count: int
    fusion_count: int
    restarts: int
    capped: bool = False
    #: The per-pass timings and ``PassContext.metrics`` provenance (cache
    #: hit/miss counts, ...) of the compilation, attached by
    #: ``Pipeline.compile`` after the run.
    pass_timings: list = field(default_factory=list, compare=False, repr=False)
    metrics: dict = field(default_factory=dict, compare=False, repr=False)

    def fields(self) -> dict:
        """The deterministic summary: what records, payloads and reports show."""
        return {
            "rsl_count": int(self.rsl_count),
            "fusion_count": int(self.fusion_count),
            "restarts": int(self.restarts),
            "capped": bool(self.capped),
        }

    @property
    def timings_by_pass(self) -> dict[str, float]:
        """Pass name -> seconds, as :class:`CompilationResult` reports them."""
        # Lazy import: repro.pipeline imports this module.
        from repro.pipeline.context import aggregate_timings

        return aggregate_timings(self.pass_timings)


def _geometric(rng, success_probability: float, cap: int) -> int:
    """Trials until first success, truncated at ``cap``."""
    if success_probability <= 0.0:
        return cap
    if success_probability >= 1.0:
        return 1
    draw = int(rng.geometric(success_probability))
    return min(draw, cap)


class RepeatUntilSuccessExecutor:
    """Monte-Carlo execution of a OneQ plan under fusion failures."""

    def __init__(
        self,
        fusion_success_rate: float,
        rsl_cap: int = DEFAULT_RSL_CAP,
        rng=None,
    ) -> None:
        if not 0.0 < fusion_success_rate <= 1.0:
            raise ValueError(
                f"fusion success rate must be in (0, 1], got {fusion_success_rate}"
            )
        self.p = fusion_success_rate
        self.rsl_cap = rsl_cap
        self.rng = ensure_rng(rng)

    def run(self, plan: OneQPlan, raise_on_cap: bool = False) -> BaselineResult:
        """Execute until the whole plan lands fusion-clean, or the cap hits.

        With ``raise_on_cap`` a capped run raises :class:`BaselineExploded`
        (matching the artifact's forced termination); otherwise the capped
        totals are returned with ``capped=True`` for the Table 2 rows.
        """
        rsl_total = 0
        fusion_total = 0
        restarts = 0
        while True:
            completed = True
            for layer in plan.layers:
                layer_success = self.p**layer.intra_fusions  # may underflow to 0
                headroom = self.rsl_cap - rsl_total
                if headroom <= 0:
                    return self._capped(rsl_total, fusion_total, restarts, raise_on_cap)
                tries = _geometric(self.rng, layer_success, headroom)
                rsl_total += tries
                fusion_total += tries * layer.intra_fusions
                if rsl_total >= self.rsl_cap:
                    return self._capped(rsl_total, fusion_total, restarts, raise_on_cap)
                # Inter-RSL fusions bind the fresh layer to its predecessors.
                fusion_total += layer.inter_fusions
                if layer.inter_fusions and (
                    self.rng.random() >= self.p**layer.inter_fusions
                ):
                    restarts += 1
                    completed = False
                    break
            if completed:
                return BaselineResult(
                    rsl_count=rsl_total,
                    fusion_count=fusion_total,
                    restarts=restarts,
                )

    def _capped(
        self, rsl_total: int, fusion_total: int, restarts: int, raise_on_cap: bool
    ) -> BaselineResult:
        if raise_on_cap:
            raise BaselineExploded(self.rsl_cap, rsl_total, fusion_total)
        return BaselineResult(
            rsl_count=max(rsl_total, self.rsl_cap),
            fusion_count=fusion_total,
            restarts=restarts,
            capped=True,
        )


def expected_rsl(plan: OneQPlan, fusion_success_rate: float) -> float:
    """Closed-form expectation of OneQ's #RSL (sanity oracle for tests).

    Per full pass, the expected RSLs are ``sum_l p^{-f_l}``; a pass survives
    with probability ``prod_l p^{g_l}``, so the expected number of passes is
    its reciprocal.  (Slight overcount: the aborted pass is cheaper than a
    full one; the Monte-Carlo executor is the reference.)
    """
    p = fusion_success_rate
    per_pass = 0.0
    survive = 1.0
    for layer in plan.layers:
        per_pass += p ** (-min(layer.intra_fusions, 700))
        survive *= p ** layer.inter_fusions
    if survive <= 0.0 or per_pass == math.inf:
        return math.inf
    return per_pass / survive
