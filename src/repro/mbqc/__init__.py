"""MBQC layer: measurement patterns, translation, dependencies, validation."""

from repro.mbqc.pattern import MeasurementPattern, PatternNode
from repro.mbqc.translate import pattern_size_summary, translate_circuit
from repro.mbqc.dependency import DependencyDAG, FrontLayer
from repro.mbqc.simulator import run_pattern
from repro.mbqc.optimize import OptimizationReport, merge_zero_pairs, optimize_pattern

__all__ = [
    "MeasurementPattern",
    "PatternNode",
    "translate_circuit",
    "pattern_size_summary",
    "DependencyDAG",
    "FrontLayer",
    "run_pattern",
    "OptimizationReport",
    "merge_zero_pairs",
    "optimize_pattern",
]
