"""Semantic oracles: what the compiler's graph and pattern rewrites mean.

The compiler never simulates amplitudes or applies a graph rewrite rule to
a resource state; these modules do, so the tests can show that translation,
the rewrite pass and the lattice abstraction preserve the quantum state:

* :mod:`semantics.statevector` — dense circuit simulation and gate matrices;
* :mod:`semantics.feed_forward` — a measurement pattern run with random
  outcomes and flow corrections;
* :mod:`semantics.stabilizer` — a CHP tableau with Pauli-product measurement
  and graph extraction, the ground truth for the graph rules;
* :mod:`semantics.graph_rules` — local complementation and Pauli
  measurements as graph rewrites;
* :mod:`semantics.fusion` — type-II fusion on graph states;
* :mod:`semantics.local_ops` — postponed local-Clifford bookkeeping;
* :mod:`semantics.resource` — star resource states and layers built as
  graph states.

Scalar and structural reference implementations of the product's own
kernels live next door, in ``tests/oracles.py``.  ``src/repro`` never
imports either (``tests/test_import_guard.py``).
"""

from semantics.feed_forward import run_pattern
from semantics.fusion import FusionOutcome, apply_fusion, apply_fusion_sampled, classify_fusion
from semantics.graph_rules import (
    connected_components,
    largest_component,
    local_complement,
    measure_x,
    measure_y,
    measure_z,
    relabeled,
    remove_edge,
    subgraph,
    toggle_edge,
)
from semantics.local_ops import Axis, LocalOpLedger, QuarterTurn
from semantics.resource import (
    LayerEmitter,
    ResourceStateInstance,
    ResourceStateLayer,
    emit_star,
    make_star,
)
from semantics.stabilizer import PauliProduct, Tableau, graph_from_adjacency
from semantics.statevector import (
    gate_matrix,
    simulate_statevector,
    simulate_unitary,
    states_equal_up_to_phase,
    unitaries_equal_up_to_phase,
)

__all__ = [
    "Axis",
    "FusionOutcome",
    "LayerEmitter",
    "LocalOpLedger",
    "PauliProduct",
    "QuarterTurn",
    "ResourceStateInstance",
    "ResourceStateLayer",
    "Tableau",
    "apply_fusion",
    "apply_fusion_sampled",
    "classify_fusion",
    "connected_components",
    "emit_star",
    "gate_matrix",
    "graph_from_adjacency",
    "largest_component",
    "local_complement",
    "make_star",
    "measure_x",
    "measure_y",
    "measure_z",
    "relabeled",
    "remove_edge",
    "run_pattern",
    "simulate_statevector",
    "simulate_unitary",
    "states_equal_up_to_phase",
    "subgraph",
    "toggle_edge",
    "unitaries_equal_up_to_phase",
]
