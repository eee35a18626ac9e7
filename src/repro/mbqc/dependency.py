"""Dependency DAG over program graph state qubits.

The offline mapper (Section 6.2) replaces OneQ's static partition with
*dynamic scheduling*: it "analyzes the dependency among graph state qubits,
representing it with a directed acyclic graph (DAG) and updating the front
layer of the DAG as nodes are consumed by the mapping".  The dependencies are
the measurement-calculus flow constraints [41]: node ``i`` must precede its
flow successor ``f(i)`` and every other neighbour of ``f(i)``.
"""

from __future__ import annotations

import heapq

from repro.errors import TranslationError
from repro.mbqc.pattern import MeasurementPattern


class DependencyDAG:
    """Flow-derived partial order; :class:`FrontLayer` iterates it.

    Built in one pass over each measured node's flow successor and that
    successor's adjacency: ``successors[i]`` holds the nodes that must come
    after ``i`` and ``indegree[i]`` counts the nodes that must come before
    it.  Both are read-only after construction.
    """

    def __init__(self, pattern: MeasurementPattern) -> None:
        self.pattern = pattern
        graph = pattern.graph
        successors: dict[int, set[int]] = {}
        indegree = dict.fromkeys(pattern.nodes, 0)
        for node_id, node in pattern.nodes.items():
            if node.angle is None:  # an output: nothing waits on it
                successors[node_id] = set()
                continue
            flow = node.successor
            later = graph.neighbors(flow)
            later.discard(node_id)
            later.add(flow)
            successors[node_id] = later
            for after in later:
                indegree[after] += 1
        self.successors = successors
        self.indegree = indegree
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """Kahn's count, in no particular order: every node retires iff no
        cycle holds any back."""
        successors = self.successors
        waiting = dict(self.indegree)
        ready = [node for node, count in waiting.items() if not count]
        retired = 0
        while ready:
            retired += 1
            for later in successors[ready.pop()]:
                waiting[later] -= 1
                if not waiting[later]:
                    ready.append(later)
        if retired != len(waiting):
            raise TranslationError("dependency graph has a cycle; no causal flow")

    def topological_order(self) -> list[int]:
        """One full order consistent with the DAG: the smallest ready node
        first (deterministic)."""
        successors = self.successors
        waiting = dict(self.indegree)
        ready = [node for node, count in waiting.items() if not count]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            current = heapq.heappop(ready)
            order.append(current)
            for later in successors[current]:
                waiting[later] -= 1
                if not waiting[later]:
                    heapq.heappush(ready, later)
        return order


class FrontLayer:
    """The DAG's front layer, updated as the mapping consumes nodes.

    ``ready`` holds the nodes whose predecessors are all consumed and which
    are not consumed themselves — the set the dynamic scheduler draws from
    at every mapping step.  A per-node count of unconsumed predecessors
    makes :meth:`consume` cost the node's out-degree, not the DAG's size.
    """

    def __init__(self, dag: DependencyDAG) -> None:
        self._successors = dag.successors
        self._waiting = dict(dag.indegree)
        self.ready = {node for node, count in self._waiting.items() if not count}

    def consume(self, node: int) -> None:
        """Retire the ready ``node``; successors it was last to wait on join."""
        self.ready.remove(node)
        waiting = self._waiting
        for later in self._successors[node]:
            waiting[later] -= 1
            if not waiting[later]:
                self.ready.add(later)
