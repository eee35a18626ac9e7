"""The OneQ baseline planner (ISCA'23), as used in the paper's evaluation.

OneQ compiles the program graph state directly onto the resource-state
lattice, assuming every fusion succeeds: each program/ancilla qubit occupies
a resource state, spatial edges are leaf-leaf fusions between neighbours on
the same RSL, and temporal edges are inter-RSL fusions.  The plan is produced
by the same embedding machinery as OnePerc's offline pass but with OneQ's
*static partition* scheduling and no occupancy reserve — the two §6.2
optimizations OnePerc adds on top of OneQ (the third, refresh, has no OneQ
counterpart).

The planner's output is consumed by
:class:`~repro.baseline.retry.RepeatUntilSuccessExecutor`, which adds the
retry semantics of Section 7.1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError
from repro.hardware.architecture import HardwareConfig
from repro.mbqc.pattern import MeasurementPattern
from repro.offline.mapper import OfflineMapper

#: Lattice sites OneQ reserves per mapped qubit for fusion routing: the plan
#: grid is the RSL downsampled by this factor.
SITE_SPACING = 3

#: Plan grids beyond this width only add planning time, not fidelity: OneQ's
#: per-layer parallelism is already far beyond what retries can sustain.
MAX_PLAN_WIDTH = 12


@dataclass(frozen=True)
class OneQLayerPlan:
    """Deterministic fusion counts for one RSL of the OneQ plan."""

    intra_fusions: int  # leaf-leaf fusions within the RSL
    inter_fusions: int  # fusions binding this RSL to its predecessors


@dataclass
class OneQPlan:
    """The full OneQ compilation output (fusion pattern, no randomness)."""

    layers: list[OneQLayerPlan]
    plan_width: int
    node_count: int

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def total_fusions(self) -> int:
        return sum(layer.intra_fusions + layer.inter_fusions for layer in self.layers)


def plan_width_for(config: HardwareConfig) -> int:
    """The OneQ embedding grid width for a given RSL size."""
    return max(2, min(MAX_PLAN_WIDTH, config.rsl_size // SITE_SPACING))


def plan_oneq(
    pattern: MeasurementPattern,
    config: HardwareConfig,
) -> OneQPlan:
    """Produce the OneQ fusion plan for ``pattern`` on ``config``'s hardware.

    Raises :class:`MappingError` if the program cannot be embedded at all
    (independent of fusion randomness).
    """
    width = plan_width_for(config)
    mapper = OfflineMapper(
        width=width,
        occupancy_limit=1.0,  # OneQ reserves no routing headroom
        dynamic_scheduling=False,  # static partition
        max_idle_layers=16,
    )
    result = mapper.map_pattern(pattern)

    # Count fusions per layer off the produced embedding: one leaf-leaf
    # fusion per spatial edge, one inter-RSL fusion per temporal edge, and
    # (merge - 1) root-leaf fusions to assemble each occupied site's star.
    merge_fusions_per_site = config.merged_rsls_per_layer - 1
    spatial_by_layer = [0] * result.layer_count
    nodes_by_layer = [0] * result.layer_count
    inter_by_layer = [0] * result.layer_count
    for a, _b in result.ir.spatial_edges:
        spatial_by_layer[a[2]] += 1
    for coord in result.ir.role:
        nodes_by_layer[coord[2]] += 1
    for later in result.ir.temporal_next.values():
        inter_by_layer[later[2]] += 1

    layers = [
        OneQLayerPlan(
            intra_fusions=spatial_by_layer[layer]
            + merge_fusions_per_site * nodes_by_layer[layer],
            inter_fusions=inter_by_layer[layer],
        )
        for layer in range(result.layer_count)
    ]
    if not layers:
        raise MappingError("OneQ produced an empty plan")
    return OneQPlan(layers=layers, plan_width=width, node_count=len(result.ir.nodes))
