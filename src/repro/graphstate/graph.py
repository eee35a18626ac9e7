"""Graph states over hashable node ids.

A graph state ``|G>`` over a graph ``G = (V, E)`` is the joint +1 eigenstate
of the stabilizers ``S_i = X_i (prod_{j in N(i)} Z_j)`` (Section 2.1 of the
paper).  The compiler holds a measurement pattern's program graph in one
(:class:`~repro.mbqc.pattern.MeasurementPattern`): translation builds it,
the rewrite pass contracts ``J(0) J(0)`` wires in it, and the offline mapper
reads its adjacency.  The graph rewrite rules of measurements, local
complementation and fusions are test oracles (``tests/semantics/``).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.errors import GraphStateError


class GraphState:
    """A graph state represented by adjacency sets over hashable node ids.

    The class is mutable: the rewrite pass edits a pattern's graph in
    place.  Use :meth:`copy` where a snapshot is needed.
    """

    def __init__(self, edges: Iterable[tuple[Hashable, Hashable]] = ()) -> None:
        self._adjacency: dict[Hashable, set[Hashable]] = {}
        for u, v in edges:
            self.add_edge(u, v)

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

    @classmethod
    def adopt(cls, adjacency: dict[Hashable, set[Hashable]]) -> "GraphState":
        """A state over ``adjacency`` itself, not a copy.

        The sets must be symmetric and loop-free; their iteration order is
        kept, so code that makes them with ``add_edge``'s set operations
        gets the state those calls would.
        """
        state = cls()
        state._adjacency = adjacency
        return state

    def copy(self) -> "GraphState":
        """Deep copy of the graph structure (node ids are shared)."""
        return GraphState.adopt(
            {node: set(nbrs) for node, nbrs in self._adjacency.items()}
        )

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
