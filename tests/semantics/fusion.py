"""Type-II fusion semantics on graph states.

A type-II fusion jointly measures ``X (x) Z`` and ``Z (x) X`` on two photonic
qubits from different resource states (Section 2.2).  Both photons are always
destroyed; the *heralded* outcome decides what happens to the survivors:

* **Success** — the neighbourhoods of the two fused qubits become pairwise
  connected: for every ``a in N(u)`` and ``b in N(v)`` the edge ``(a, b)`` is
  toggled (Section 4.1: "the two sets of neighbouring qubits of them would be
  connected in pairwise").  For leaf-leaf fusions of star states this is the
  familiar "edge created between the two stars".
* **Failure** — each fused qubit is removed *after a local complementation on
  it* (Section 4.2: "a failed fusion on a qubit v can be regarded as removing
  the qubit after a process of local complementation on v").  Equivalently,
  each qubit is measured in the Y basis.  For a leaf qubit the LC is trivial
  and the failure just burns the leaf; for a root qubit it leaves the
  fully-connected cyclic structure of Fig. 8 that the compiler must clean up.

These graph rules are validated against the stabilizer tableau simulator in
``tests/test_stabilizer_vs_graph.py``.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.errors import GraphStateError
from repro.graphstate.graph import GraphState
from semantics.graph_rules import measure_y, toggle_edge


@dataclass(frozen=True)
class FusionOutcome:
    """Record of one attempted fusion, for metric accounting and replay."""

    qubit_a: Hashable
    qubit_b: Hashable
    success: bool
    kind: str  # "leaf-leaf" | "root-leaf" | "root-root"


def classify_fusion(graph: GraphState, qubit_a: Hashable, qubit_b: Hashable) -> str:
    """Classify a fusion by the degrees of its operands (paper's terminology).

    Degree-1 qubits are *leaves*, higher-degree qubits are *roots*.
    """
    degree_a = graph.degree(qubit_a)
    degree_b = graph.degree(qubit_b)
    if degree_a <= 1 and degree_b <= 1:
        return "leaf-leaf"
    if degree_a <= 1 or degree_b <= 1:
        return "root-leaf"
    return "root-root"


def apply_fusion(
    graph: GraphState,
    qubit_a: Hashable,
    qubit_b: Hashable,
    success: bool,
) -> FusionOutcome:
    """Apply one type-II fusion between ``qubit_a`` and ``qubit_b`` in place.

    Both qubits are consumed regardless of the outcome.  Fusing a qubit with
    itself or two adjacent qubits is rejected: the hardware only fuses photons
    from *different* resource states, which are never entangled beforehand.
    """
    if qubit_a == qubit_b:
        raise GraphStateError("cannot fuse a qubit with itself")
    if graph.has_edge(qubit_a, qubit_b):
        raise GraphStateError(
            f"fusion operands {qubit_a!r}, {qubit_b!r} are already entangled; "
            "type-II fusion is only defined across resource states"
        )
    kind = classify_fusion(graph, qubit_a, qubit_b)

    if success:
        neighbors_a = graph.neighbors(qubit_a)
        neighbors_b = graph.neighbors(qubit_b)
        graph.remove_node(qubit_a)
        graph.remove_node(qubit_b)
        for a in neighbors_a:
            for b in neighbors_b:
                if a != b:
                    toggle_edge(graph, a, b)
    else:
        # Failure destroys each photon after a local complementation on it
        # (the Y-measurement rule).  The two qubits are non-adjacent, so the
        # two removals commute.
        measure_y(graph, qubit_a)
        measure_y(graph, qubit_b)

    return FusionOutcome(qubit_a, qubit_b, success, kind)


def apply_fusion_sampled(
    graph: GraphState,
    qubit_a: Hashable,
    qubit_b: Hashable,
    success_probability: float,
    rng,
) -> FusionOutcome:
    """Sample a heralded outcome at ``success_probability`` and apply it."""
    if not 0.0 <= success_probability <= 1.0:
        raise GraphStateError(
            f"fusion success probability {success_probability} outside [0, 1]"
        )
    success = bool(rng.random() < success_probability)
    return apply_fusion(graph, qubit_a, qubit_b, success)
