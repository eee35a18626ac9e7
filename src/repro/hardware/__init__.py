"""Photonic hardware model: RSGs, layers, fusion devices, folding."""

from repro.hardware.architecture import (
    HYPER_ADVANCED_FUSION_RATE,
    LATTICE_DEGREE_2D,
    LATTICE_DEGREE_3D,
    PRACTICAL_FUSION_RATE,
    HardwareConfig,
)
from repro.hardware.fusion import FusionDevice, FusionTally
from repro.hardware.rsg import MergeResult, ResourceStateLayer, RSGArray
from repro.hardware.folding import (
    FoldingPlan,
    folding_overhead_fraction,
    max_effective_side,
    plan_folding,
)

__all__ = [
    "HardwareConfig",
    "PRACTICAL_FUSION_RATE",
    "HYPER_ADVANCED_FUSION_RATE",
    "LATTICE_DEGREE_2D",
    "LATTICE_DEGREE_3D",
    "FusionDevice",
    "FusionTally",
    "RSGArray",
    "ResourceStateLayer",
    "MergeResult",
    "FoldingPlan",
    "plan_folding",
    "max_effective_side",
    "folding_overhead_fraction",
]
