"""Graph states and their rewrite rules.

A graph state ``|G>`` over a graph ``G = (V, E)`` is the joint +1 eigenstate
of the stabilizers ``S_i = X_i (prod_{j in N(i)} Z_j)`` (Section 2.1 of the
paper).  Everything the compiler does to quantum states — Z-measuring out
redundant qubits, local complementation to remove irregular structures, and
type-II fusions — acts on ``|G>`` purely through graph rewrites, so this class
is the workhorse of both the online and offline passes.

The rewrite rules implemented here are the standard ones (Hein et al. 2006):

* ``Z``-measurement of ``v``: delete ``v`` and its edges.
* ``Y``-measurement of ``v``: local-complement at ``v``, then delete ``v``.
* ``X``-measurement of ``v``: local-complement at a chosen neighbour ``b``,
  ``Y``-measure ``v``, then local-complement at ``b`` again.
* local complementation ``tau_v``: toggle every edge among the neighbours
  of ``v``.

All rules are exact up to local Clifford corrections on the remaining qubits;
the corrections are tracked separately by :mod:`repro.graphstate.local_ops`
and validated against the stabilizer tableau in the test-suite.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from itertools import combinations
from typing import TypeVar

from repro.errors import GraphStateError

Node = TypeVar("Node", bound=Hashable)


class GraphState:
    """A graph state represented by adjacency sets over hashable node ids.

    The class is deliberately mutable: the online pass performs millions of
    in-place rewrites per resource state layer, so copy-on-write semantics
    would dominate the runtime.  Use :meth:`copy` where a snapshot is needed.
    """

    def __init__(self, edges: Iterable[tuple[Hashable, Hashable]] = ()) -> None:
        self._adjacency: dict[Hashable, set[Hashable]] = {}
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    def __contains__(self, node: Hashable) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._adjacency)

    @property
    def node_count(self) -> int:
        """Number of qubits in the state."""
        return len(self._adjacency)

    @property
    def edge_count(self) -> int:
        """Number of entangling edges."""
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def nodes(self) -> list[Hashable]:
        """All node ids (insertion-ordered)."""
        return list(self._adjacency)

    def edges(self) -> list[tuple[Hashable, Hashable]]:
        """All edges, each reported once."""
        seen: list[tuple[Hashable, Hashable]] = []
        visited: set[Hashable] = set()
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                if v not in visited:
                    seen.append((u, v))
            visited.add(u)
        return seen

    def add_node(self, node: Hashable) -> None:
        """Add an isolated qubit in the ``|+>`` state (idempotent)."""
        self._adjacency.setdefault(node, set())

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Entangle ``u`` and ``v`` with a CZ edge (idempotent)."""
        if u == v:
            raise GraphStateError(f"self-loop on {u!r} is not a valid CZ edge")
        self._adjacency.setdefault(u, set()).add(v)
        self._adjacency.setdefault(v, set()).add(u)

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Remove the edge between ``u`` and ``v`` (must exist)."""
        try:
            self._adjacency[u].remove(v)
            self._adjacency[v].remove(u)
        except KeyError as exc:
            raise GraphStateError(f"no edge between {u!r} and {v!r}") from exc

    def toggle_edge(self, u: Hashable, v: Hashable) -> None:
        """Flip the presence of edge ``(u, v)`` — the CZ action on graph states."""
        if u == v:
            raise GraphStateError(f"self-loop on {u!r} is not a valid CZ edge")
        if v in self._adjacency.get(u, ()):
            self.remove_edge(u, v)
        else:
            self.add_edge(u, v)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Whether ``u`` and ``v`` are entangled."""
        return v in self._adjacency.get(u, ())

    def neighbors(self, node: Hashable) -> set[Hashable]:
        """A copy of the neighbour set of ``node``."""
        try:
            return set(self._adjacency[node])
        except KeyError as exc:
            raise GraphStateError(f"unknown qubit {node!r}") from exc

    def degree(self, node: Hashable) -> int:
        """Number of neighbours of ``node``."""
        try:
            return len(self._adjacency[node])
        except KeyError as exc:
            raise GraphStateError(f"unknown qubit {node!r}") from exc

    def remove_node(self, node: Hashable) -> None:
        """Delete a qubit and all its edges (the ``Z``-measurement rule)."""
        try:
            neighbors = self._adjacency.pop(node)
        except KeyError as exc:
            raise GraphStateError(f"unknown qubit {node!r}") from exc
        for neighbor in neighbors:
            self._adjacency[neighbor].discard(node)

    # ------------------------------------------------------------------
    # Rewrite rules
    # ------------------------------------------------------------------

    def local_complement(self, node: Hashable) -> None:
        """Apply ``tau_node``: toggle all edges among the neighbours of ``node``.

        This is the graph action of the local Clifford
        ``U_v(G) = exp(-i pi/4 X_v) prod_{u in N(v)} exp(i pi/4 Z_u)``
        (Section 4.2 of the paper).
        """
        nbrs = sorted(self.neighbors(node), key=repr)
        for u, v in combinations(nbrs, 2):
            self.toggle_edge(u, v)

    def measure_z(self, node: Hashable) -> None:
        """Measure ``node`` in the Z basis: remove it from the graph.

        Z-measurements are how the reshaping pass eliminates redundant qubits
        of the random physical graph state (Section 1, feature 3).
        """
        self.remove_node(node)

    def measure_y(self, node: Hashable) -> None:
        """Measure ``node`` in the Y basis: local-complement, then remove."""
        self.local_complement(node)
        self.remove_node(node)

    def measure_x(self, node: Hashable, special_neighbor: Hashable | None = None) -> None:
        """Measure ``node`` in the X basis.

        Uses the standard rule ``tau_b . tau_node . tau_b`` with a designated
        neighbour ``b`` (any neighbour gives locally-equivalent results).  An
        isolated node is simply removed (its X-measurement is deterministic).
        """
        nbrs = self.neighbors(node)
        if not nbrs:
            self.remove_node(node)
            return
        if special_neighbor is None:
            special_neighbor = min(nbrs, key=repr)
        elif special_neighbor not in nbrs:
            raise GraphStateError(
                f"{special_neighbor!r} is not a neighbour of {node!r}"
            )
        self.local_complement(special_neighbor)
        self.measure_y(node)
        self.local_complement(special_neighbor)

    # ------------------------------------------------------------------
    # Queries used by the compiler passes
    # ------------------------------------------------------------------

    def connected_components(self) -> list[set[Hashable]]:
        """All connected components, largest first."""
        remaining = set(self._adjacency)
        components: list[set[Hashable]] = []
        while remaining:
            start = next(iter(remaining))
            stack = [start]
            component = {start}
            while stack:
                node = stack.pop()
                for neighbor in self._adjacency[node]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            components.append(component)
            remaining -= component
        components.sort(key=len, reverse=True)
        return components

    def largest_component(self) -> set[Hashable]:
        """Nodes of the largest connected component (empty set if empty graph)."""
        components = self.connected_components()
        return components[0] if components else set()

    def subgraph(self, nodes: Iterable[Hashable]) -> "GraphState":
        """The induced subgraph on ``nodes`` as a new :class:`GraphState`."""
        keep = set(nodes)
        sub = GraphState()
        for node in keep:
            if node not in self._adjacency:
                raise GraphStateError(f"unknown qubit {node!r}")
            sub.add_node(node)
        for node in keep:
            for neighbor in self._adjacency[node]:
                if neighbor in keep:
                    sub.add_edge(node, neighbor)
        return sub

    @classmethod
    def adopt(cls, adjacency: dict[Hashable, set[Hashable]]) -> "GraphState":
        """A state over ``adjacency`` itself, not a copy.

        The sets must be symmetric and loop-free; their iteration order is
        kept, so code that makes them with ``add_edge``'s and
        ``toggle_edge``'s set operations gets the state those calls would.
        """
        state = cls()
        state._adjacency = adjacency
        return state

    def copy(self) -> "GraphState":
        """Deep copy of the graph structure (node ids are shared)."""
        return GraphState.adopt(
            {node: set(nbrs) for node, nbrs in self._adjacency.items()}
        )

    def relabeled(self, mapping: dict[Hashable, Hashable]) -> "GraphState":
        """A copy with node ids sent through ``mapping`` (identity if absent)."""
        clone = GraphState()
        for node in self._adjacency:
            clone.add_node(mapping.get(node, node))
        for u, v in self.edges():
            clone.add_edge(mapping.get(u, u), mapping.get(v, v))
        if len(clone) != len(self):
            raise GraphStateError("relabeling collapsed distinct nodes")
        return clone

    def is_isomorphic_as_labelled(self, other: "GraphState") -> bool:
        """Whether both states have identical node sets and edge sets."""
        if set(self._adjacency) != set(other._adjacency):
            return False
        return all(
            self._adjacency[node] == other._adjacency[node]
            for node in self._adjacency
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphState):
            return NotImplemented
        return self.is_isomorphic_as_labelled(other)

    def __repr__(self) -> str:
        return (
            f"GraphState(nodes={self.node_count}, edges={self.edge_count})"
        )
