"""Compilation settings shared by every pass and the sizing heuristics.

:class:`PipelineSettings` is the immutable bag of knobs of one compilation;
a :class:`~repro.pipeline.pipeline.Pipeline` pairs one settings object with
a pass list and stamps out a fresh :class:`~repro.pipeline.context.
PassContext` per (circuit, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baseline.retry import DEFAULT_RSL_CAP
from repro.circuits.circuit import Circuit
from repro.graphstate.resource import ResourceStateSpec
from repro.hardware.architecture import HardwareConfig
from repro.offline.mapper import DEFAULT_BYTES_PER_NODE_LAYER
from repro.pipeline.context import PassContext
from repro.utils.rng import RandomStream


#: Table 1's virtual-hardware sizing: one lattice column per circuit qubit,
#: arranged square (4 qubits -> 2x2, 25 -> 5x5, ...).
def virtual_size_for(num_qubits: int) -> int:
    return max(2, math.isqrt(num_qubits) + (0 if math.isqrt(num_qubits) ** 2 == num_qubits else 1))


#: Table 1's RSL sizing: the renormalized lattice must reach the virtual
#: hardware size, so the RSL side is ``node_side * virtual_side``; the paper
#: uses 12x at p = 0.90 and 24x at p = 0.75.
def rsl_size_for(num_qubits: int, fusion_success_rate: float, node_side: int | None = None) -> int:
    if node_side is None:
        node_side = 12 if fusion_success_rate >= 0.85 else 24
    return node_side * virtual_size_for(num_qubits)


@dataclass(frozen=True)
class PipelineSettings:
    """Every knob of one compilation, resolved per circuit at run time.

    ``rsl_size``/``virtual_size`` pin the lattice sizes outright; when they
    are ``None`` the Table 1 heuristics apply, with ``node_side`` overriding
    the per-rate default multiplier (so one settings object can serve a
    whole sweep of program sizes, as the experiment drivers need).
    """

    fusion_success_rate: float = 0.75
    resource_state_size: int = 4
    rsl_size: int | None = None
    virtual_size: int | None = None
    node_side: int | None = None
    refresh_every: int | None = None
    memory_budget_bytes: int | None = None
    bytes_per_node_layer: int = DEFAULT_BYTES_PER_NODE_LAYER
    photon_loss_rate: float = 0.0
    max_rsl: int = DEFAULT_RSL_CAP

    def hardware_for(self, num_qubits: int) -> tuple[HardwareConfig, int]:
        """Resolve the hardware config and virtual size for a program."""
        # Only ``None`` is unset: a pinned 0 must reach the hardware and
        # mapper checks.
        virtual = self.virtual_size
        if virtual is None:
            virtual = virtual_size_for(num_qubits)
        rsl = self.rsl_size
        if rsl is None:
            rsl = rsl_size_for(
                num_qubits, self.fusion_success_rate, node_side=self.node_side
            )
        config = HardwareConfig(
            rsl_size=rsl,
            resource_state=ResourceStateSpec(self.resource_state_size),
            fusion_success_rate=self.fusion_success_rate,
            photon_loss_rate=self.photon_loss_rate,
        )
        return config, virtual

    def context_for(self, circuit: Circuit, seed: int | None = None) -> PassContext:
        """A fresh context for compiling ``circuit`` under these settings."""
        config, virtual = self.hardware_for(circuit.num_qubits)
        return PassContext(
            circuit=circuit,
            config=config,
            virtual_size=virtual,
            stream=RandomStream(seed),
            settings=self,
        )
