"""Online passes: fusion strategy, percolation, renormalization, reshaping."""

from repro.online.percolation import (
    GridComponents,
    PercolatedLattice,
    sample_lattice,
    spanning_probability,
)
from repro.online.renormalize import RenormalizationResult, renormalize
from repro.online.modular import (
    ModularLayout,
    ModularResult,
    modular_renormalize,
)
from repro.online.fusion_strategy import (
    LayerFormation,
    TEMPORAL_RESERVE,
    effective_bond_probability,
    form_layer,
)
from repro.online.timelike import (
    LayerDemand,
    OnlineReshaper,
    ReshapeMetrics,
    TEMPORAL_FANOUT,
)

__all__ = [
    "GridComponents",
    "PercolatedLattice",
    "sample_lattice",
    "spanning_probability",
    "RenormalizationResult",
    "renormalize",
    "ModularLayout",
    "ModularResult",
    "modular_renormalize",
    "LayerFormation",
    "TEMPORAL_RESERVE",
    "effective_bond_probability",
    "form_layer",
    "LayerDemand",
    "OnlineReshaper",
    "ReshapeMetrics",
    "TEMPORAL_FANOUT",
]
