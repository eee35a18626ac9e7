"""Star resource states materialized as graph states, star by star.

The compiler never builds a resource state layer's graph: it samples merged
layers on site/bond arrays (:meth:`repro.hardware.RSGArray.merge_layers`).
These helpers build the real graph state of a small layer so the exact-layer
oracle (``tests/oracles.py::build_exact_layer``) and the fusion tests can
fuse actual qubits and compare the result with that abstraction.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.errors import HardwareError
from repro.graphstate.graph import GraphState
from repro.graphstate.resource import ResourceStateSpec
from repro.hardware.architecture import HardwareConfig


@dataclass
class ResourceStateInstance:
    """One emitted resource state with concrete node ids inside a larger graph."""

    root: Hashable
    leaves: list[Hashable] = field(default_factory=list)

    @property
    def qubits(self) -> list[Hashable]:
        """All node ids, root first."""
        return [self.root, *self.leaves]

    @property
    def size(self) -> int:
        return 1 + len(self.leaves)


def make_star(
    graph: GraphState,
    root: Hashable,
    leaves: list[Hashable],
) -> ResourceStateInstance:
    """Add a star resource state with the given node ids to ``graph``."""
    if not leaves:
        raise HardwareError("a star resource state needs at least one leaf")
    graph.add_node(root)
    for leaf in leaves:
        graph.add_edge(root, leaf)
    return ResourceStateInstance(root=root, leaves=list(leaves))


def emit_star(
    graph: GraphState,
    spec: ResourceStateSpec,
    tag: Hashable,
) -> ResourceStateInstance:
    """Emit a fresh ``spec.size``-qubit star whose node ids are ``(tag, k)``.

    ``k = 0`` is the root; ``k = 1 .. size-1`` are leaves.  ``tag`` is
    typically an (RSL index, row, col) triple so node ids are globally unique
    across the space-time array of resource states.
    """
    root = (tag, 0)
    leaves = [(tag, index) for index in range(1, spec.size)]
    return make_star(graph, root, leaves)


@dataclass
class ResourceStateLayer:
    """One RSG cycle's worth of resource states, arranged on a grid."""

    index: int
    size: int
    spec: ResourceStateSpec

    def build_graph(self) -> tuple[GraphState, dict[tuple[int, int], ResourceStateInstance]]:
        """Materialize all stars of the layer into one graph state.

        Node ids are ``((layer, row, col), k)`` with ``k = 0`` the root.
        Only practical for small layers — a 240x240 layer with 7-qubit stars
        is 400k qubits.
        """
        graph = GraphState()
        stars: dict[tuple[int, int], ResourceStateInstance] = {}
        for row in range(self.size):
            for col in range(self.size):
                tag = (self.index, row, col)
                stars[(row, col)] = emit_star(graph, self.spec, tag)
        return graph, stars


class LayerEmitter:
    """Emits an RSG array's layers in sequence, one index per cycle."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        self._next_index = 0

    def emit_layer(self) -> ResourceStateLayer:
        """Emit the next RSL in sequence."""
        layer = ResourceStateLayer(
            index=self._next_index,
            size=self.config.rsl_size,
            spec=self.config.resource_state,
        )
        self._next_index += 1
        return layer
