"""Circuit -> measurement pattern translation (Fig. 3 of the paper).

The standard Broadbent–Kashefi construction: each wire starts at an input
node; a ``J(alpha)`` gate appends a fresh node, connects it to the wire's
current node, and marks the current node for an equatorial measurement with
the gadget angle ``alpha``; a ``CZ`` gate toggles an edge between the two
wires' current nodes.  The wire-ends at the end of the circuit are the output
nodes.

The ``{J, CZ}`` ops come straight from :func:`repro.circuits.jcz.jcz_ops`
(the lowering table with its ``J(0) J(0)`` peephole), so no ``{J, CZ}``
circuit is built.  The graph's adjacency sets see the same ``add``/``remove``
sequence a ``GraphState`` built edge by edge would, so their iteration order
(which the offline mapper reads) is the same too.
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.circuits.jcz import CZ, jcz_ops
from repro.errors import TranslationError
from repro.graphstate.graph import GraphState
from repro.mbqc.pattern import MeasurementPattern, PatternNode


def translate_circuit(circuit: Circuit) -> MeasurementPattern:
    """Translate ``circuit`` into a measurement pattern on a program graph state.

    Non-``{J, CZ}`` circuits are lowered with the ``J(0) J(0)`` peephole; a
    circuit already in ``{J, CZ}`` is translated as written.  Node ids are
    dense integers in creation order; the returned pattern validates
    cleanly and has a causal flow order by construction.
    """
    adjacency: dict[int, set[int]] = {}
    nodes: dict[int, PatternNode] = {}
    for wire in range(circuit.num_qubits):
        adjacency[wire] = set()
        nodes[wire] = PatternNode(wire, wire)
    current = list(range(circuit.num_qubits))
    inputs = list(current)
    for code, a, b in jcz_ops(circuit, simplify=not circuit.is_jcz()):
        if code == CZ:
            u = current[a]
            v = current[b]
            if u == v:
                raise TranslationError("CZ on a single wire is impossible")
            around = adjacency[u]
            if v in around:
                around.remove(v)
                adjacency[v].remove(u)
            else:
                around.add(v)
                adjacency[v].add(u)
        else:
            # J(b) on wire a: a fresh node takes the wire over.
            old = current[a]
            fresh = len(nodes)
            adjacency[old].add(fresh)
            adjacency[fresh] = {old}
            node = nodes[old]
            node.angle = b
            node.successor = fresh
            nodes[fresh] = PatternNode(fresh, a)
            current[a] = fresh

    pattern = MeasurementPattern(
        graph=GraphState.adopt(adjacency),
        nodes=nodes,
        inputs=inputs,
        outputs=current,
        name=f"{circuit.name}:pattern",
    )
    pattern.validate()
    return pattern


def pattern_size_summary(pattern: MeasurementPattern) -> dict[str, int]:
    """Size metrics used by the experiment harness and documentation."""
    return {
        "nodes": pattern.node_count,
        "edges": pattern.graph.edge_count,
        "measured": pattern.measured_count,
        "wires": len(pattern.inputs),
    }
