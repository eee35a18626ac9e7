"""Photonic hardware model: RSG arrays, layer merging, fusion devices."""

from repro.hardware.architecture import (
    HYPER_ADVANCED_FUSION_RATE,
    LATTICE_DEGREE_2D,
    LATTICE_DEGREE_3D,
    PRACTICAL_FUSION_RATE,
    HardwareConfig,
)
from repro.hardware.fusion import FusionDevice, FusionTally
from repro.hardware.rsg import MergeResult, RSGArray

__all__ = [
    "HardwareConfig",
    "PRACTICAL_FUSION_RATE",
    "HYPER_ADVANCED_FUSION_RATE",
    "LATTICE_DEGREE_2D",
    "LATTICE_DEGREE_3D",
    "FusionDevice",
    "FusionTally",
    "RSGArray",
    "MergeResult",
]
