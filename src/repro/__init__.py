"""OnePerc reproduction: a randomness-aware compiler for photonic MBQC.

This package is the compiler of *OnePerc: A Randomness-aware Compiler for
Photonic Quantum Computing* (ASPLOS 2024): the circuit front end and its
translation to measurement patterns, the offline mapping pass onto the
FlexLattice IR, the online percolation / renormalization passes over the
photonic hardware model, the OneQ repeat-until-success baseline, and the
pipeline, cache, experiments and service around them.  The semantic oracles
that show translation and rewriting preserve the circuit (statevector and
feed-forward simulators, the stabilizer tableau, the graph rewrite rules)
live with the tests, in ``tests/semantics/``.

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
from repro.graphstate import ResourceStateSpec
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
    "ResourceStateSpec",
    "__version__",
]

__version__ = "1.0.0"
