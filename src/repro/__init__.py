"""OnePerc reproduction: a randomness-aware compiler for photonic MBQC.

This package reimplements the full system of *OnePerc: A Randomness-aware
Compiler for Photonic Quantum Computing* (ASPLOS 2024): the graph-state and
stabilizer substrates, the photonic hardware model, the online percolation /
renormalization passes, the FlexLattice IR with its instruction set, the
offline mapping pass, and the OneQ repeat-until-success baseline.

Quickstart::

    from repro import Pipeline, PipelineSettings
    from repro.circuits import qaoa

    circuit = qaoa(num_qubits=4, seed=1)
    result = Pipeline(PipelineSettings(fusion_success_rate=0.75), seed=7).compile(circuit)
    print(result.rsl_count, result.fusion_count)
"""

from repro.errors import (
    BaselineExploded,
    CompilationError,
    GraphStateError,
    HardwareError,
    IRError,
    MappingError,
    MemoryBudgetExceeded,
    ReproError,
)
from repro.graphstate import GraphState, ResourceStateSpec
from repro.analysis import Summary, bootstrap_mean, monotone_fraction
from repro.pipeline import Pipeline, PipelineSettings

__all__ = [
    "Pipeline",
    "PipelineSettings",
    "ReproError",
    "GraphStateError",
    "HardwareError",
    "IRError",
    "MappingError",
    "MemoryBudgetExceeded",
    "CompilationError",
    "BaselineExploded",
    "GraphState",
    "ResourceStateSpec",
    "Summary",
    "bootstrap_mean",
    "monotone_fraction",
    "__version__",
]

__version__ = "1.0.0"
