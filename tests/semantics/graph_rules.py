"""Graph-state rewrite rules, as functions over a :class:`GraphState`.

The rules are the standard ones (Hein et al. 2006):

* ``Z``-measurement of ``v``: delete ``v`` and its edges.
* ``Y``-measurement of ``v``: local-complement at ``v``, then delete ``v``.
* ``X``-measurement of ``v``: local-complement at a chosen neighbour ``b``,
  ``Y``-measure ``v``, then local-complement at ``b`` again.
* local complementation ``tau_v``: toggle every edge among the neighbours
  of ``v``.

All rules are exact up to local Clifford corrections on the remaining qubits;
the corrections are tracked by :mod:`semantics.local_ops`, and the rules are
checked against the stabilizer tableau in ``tests/test_stabilizer_vs_graph.py``.
The compiler never applies them: its passes work on site/bond arrays and on
measurement patterns, so the rules live here with the other oracles.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from itertools import combinations

from repro.errors import GraphStateError
from repro.graphstate.graph import GraphState


def remove_edge(graph: GraphState, u: Hashable, v: Hashable) -> None:
    """Remove the edge between ``u`` and ``v`` (must exist)."""
    try:
        graph._adjacency[u].remove(v)
        graph._adjacency[v].remove(u)
    except KeyError as exc:
        raise GraphStateError(f"no edge between {u!r} and {v!r}") from exc


def toggle_edge(graph: GraphState, u: Hashable, v: Hashable) -> None:
    """Flip the presence of edge ``(u, v)`` — the CZ action on graph states."""
    if u == v:
        raise GraphStateError(f"self-loop on {u!r} is not a valid CZ edge")
    if graph.has_edge(u, v):
        remove_edge(graph, u, v)
    else:
        graph.add_edge(u, v)


def local_complement(graph: GraphState, node: Hashable) -> None:
    """Apply ``tau_node``: toggle all edges among the neighbours of ``node``.

    This is the graph action of the local Clifford
    ``U_v(G) = exp(-i pi/4 X_v) prod_{u in N(v)} exp(i pi/4 Z_u)``
    (Section 4.2 of the paper).
    """
    nbrs = sorted(graph.neighbors(node), key=repr)
    for u, v in combinations(nbrs, 2):
        toggle_edge(graph, u, v)


def measure_z(graph: GraphState, node: Hashable) -> None:
    """Measure ``node`` in the Z basis: remove it from the graph.

    Z-measurements are how the reshaping pass eliminates redundant qubits
    of the random physical graph state (Section 1, feature 3).
    """
    graph.remove_node(node)


def measure_y(graph: GraphState, node: Hashable) -> None:
    """Measure ``node`` in the Y basis: local-complement, then remove."""
    local_complement(graph, node)
    graph.remove_node(node)


def measure_x(
    graph: GraphState, node: Hashable, special_neighbor: Hashable | None = None
) -> None:
    """Measure ``node`` in the X basis.

    Uses the standard rule ``tau_b . tau_node . tau_b`` with a designated
    neighbour ``b`` (any neighbour gives locally-equivalent results).  An
    isolated node is simply removed (its X-measurement is deterministic).
    """
    nbrs = graph.neighbors(node)
    if not nbrs:
        graph.remove_node(node)
        return
    if special_neighbor is None:
        special_neighbor = min(nbrs, key=repr)
    elif special_neighbor not in nbrs:
        raise GraphStateError(f"{special_neighbor!r} is not a neighbour of {node!r}")
    local_complement(graph, special_neighbor)
    measure_y(graph, node)
    local_complement(graph, special_neighbor)


def connected_components(graph: GraphState) -> list[set[Hashable]]:
    """All connected components, largest first."""
    remaining = set(graph)
    components: list[set[Hashable]] = []
    while remaining:
        start = next(iter(remaining))
        stack = [start]
        component = {start}
        while stack:
            node = stack.pop()
            for neighbor in graph.neighbors(node):
                if neighbor not in component:
                    component.add(neighbor)
                    stack.append(neighbor)
        components.append(component)
        remaining -= component
    components.sort(key=len, reverse=True)
    return components


def largest_component(graph: GraphState) -> set[Hashable]:
    """Nodes of the largest connected component (empty set if empty graph)."""
    components = connected_components(graph)
    return components[0] if components else set()


def subgraph(graph: GraphState, nodes: Iterable[Hashable]) -> GraphState:
    """The induced subgraph on ``nodes`` as a new :class:`GraphState`."""
    keep = set(nodes)
    sub = GraphState()
    for node in keep:
        if node not in graph:
            raise GraphStateError(f"unknown qubit {node!r}")
        sub.add_node(node)
    for node in keep:
        for neighbor in graph.neighbors(node):
            if neighbor in keep:
                sub.add_edge(node, neighbor)
    return sub


def relabeled(graph: GraphState, mapping: dict[Hashable, Hashable]) -> GraphState:
    """A copy with node ids sent through ``mapping`` (identity if absent)."""
    clone = GraphState()
    for node in graph:
        clone.add_node(mapping.get(node, node))
    for u, v in graph.edges():
        clone.add_edge(mapping.get(u, u), mapping.get(v, v))
    if len(clone) != len(graph):
        raise GraphStateError("relabeling collapsed distinct nodes")
    return clone
