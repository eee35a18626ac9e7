"""Circuit frontend: gate IR, {J, CZ} lowering, benchmarks."""

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.circuits.jcz import to_jcz
from repro.circuits.benchmarks import (
    BENCHMARKS,
    make_benchmark,
    qaoa,
    qft,
    random_maxcut_graph,
    rca,
    vqe,
)

__all__ = [
    "Circuit",
    "Gate",
    "to_jcz",
    "BENCHMARKS",
    "make_benchmark",
    "qaoa",
    "qft",
    "rca",
    "vqe",
    "random_maxcut_graph",
]
