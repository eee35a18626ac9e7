"""Dependency DAG over program graph state qubits.

The offline mapper (Section 6.2) replaces OneQ's static partition with
*dynamic scheduling*: it "analyzes the dependency among graph state qubits,
representing it with a directed acyclic graph (DAG) and updating the front
layer of the DAG as nodes are consumed by the mapping".  The dependencies are
the measurement-calculus flow constraints [41]: node ``i`` must precede its
flow successor ``f(i)`` and every other neighbour of ``f(i)``.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.mbqc.pattern import MeasurementPattern


class DependencyDAG:
    """Flow-derived partial order; :class:`FrontLayer` iterates it."""

    def __init__(self, pattern: MeasurementPattern) -> None:
        self.pattern = pattern
        self._successors: dict[int, set[int]] = {node: set() for node in pattern.nodes}
        self._predecessors: dict[int, set[int]] = {node: set() for node in pattern.nodes}
        for node_id, node in pattern.nodes.items():
            if node.is_output:
                continue
            later_nodes = {node.successor}
            later_nodes.update(
                neighbor
                for neighbor in pattern.graph.neighbors(node.successor)
                if neighbor != node_id
            )
            for later in later_nodes:
                self._successors[node_id].add(later)
                self._predecessors[later].add(node_id)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        if len(self.topological_order()) != len(self._successors):
            raise TranslationError("dependency graph has a cycle; no causal flow")

    # ------------------------------------------------------------------

    def successors(self, node: int) -> set[int]:
        """Nodes that must come after ``node``."""
        return set(self._successors[node])

    def predecessors(self, node: int) -> set[int]:
        """Nodes that must come before ``node``."""
        return set(self._predecessors[node])

    def topological_order(self) -> list[int]:
        """One full order consistent with the DAG (deterministic)."""
        indegree = {node: len(preds) for node, preds in self._predecessors.items()}
        ready = sorted(node for node, count in indegree.items() if count == 0)
        order: list[int] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            inserted = False
            for later in sorted(self._successors[current]):
                indegree[later] -= 1
                if indegree[later] == 0:
                    ready.append(later)
                    inserted = True
            if inserted:
                ready.sort()
        return order

    def depth(self) -> int:
        """Length of the longest dependency chain (a lower bound on layers)."""
        level: dict[int, int] = {}
        for node in self.topological_order():
            preds = self._predecessors[node]
            level[node] = 1 + max((level[p] for p in preds), default=0)
        return max(level.values(), default=0)


class FrontLayer:
    """The DAG's front layer, updated as the mapping consumes nodes.

    ``ready`` holds the nodes whose predecessors are all consumed and which
    are not consumed themselves — the set the dynamic scheduler draws from
    at every mapping step.  A per-node count of unconsumed predecessors
    makes :meth:`consume` cost the node's out-degree, not the DAG's size.
    """

    def __init__(self, dag: DependencyDAG) -> None:
        self._successors = dag._successors
        self._waiting = {node: len(preds) for node, preds in dag._predecessors.items()}
        self.ready = {node for node, count in self._waiting.items() if count == 0}

    def consume(self, node: int) -> None:
        """Retire the ready ``node``; successors it was last to wait on join."""
        self.ready.remove(node)
        waiting = self._waiting
        for later in self._successors[node]:
            waiting[later] -= 1
            if not waiting[later]:
                self.ready.add(later)
