"""The intermediate-level instruction set (Section 6.3).

A FlexLattice IR program executes by translation to six instructions that
steer the real-time reshaping pass:

* ``map_v_node(v_node, g_node)`` — measure the node in its program basis;
* ``make_v_node_ancilla(v_node)`` — measure in X/Y as routing wire;
* ``store_v_node(v_node)`` — push its surrounding qubits into delay lines;
* ``retrieve_v_node(v_node, position)`` — pop them at a later layer;
* ``enable_spatial_v_edge(v_node, adjacent_v_node)`` — in-layer edge;
* ``enable_temporal_v_edge(v_node, adjacent_v_node)`` — inter-layer edge.

Qubits default to Z-measurement, so edges exist only where instructions
enable them.  Cross-layer edges (layer ``m`` to ``n > m + 1``) compile to a
store at ``m``, a retrieve at ``n - 1`` and a temporal edge ``n-1 -> n`` —
exactly the paper's worked example.  :class:`InstructionInterpreter` replays
a program against the virtual-hardware rules and is the legality oracle used
by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import InstructionError
from repro.ir.flexlattice import (
    ROLE_ANCILLA,
    ROLE_GRAPH,
    ROLE_WORLDLINE,
    FlexLatticeIR,
)
from repro.utils.gridgeom import Coord3D


@dataclass(frozen=True)
class MapVNode:
    v_node: Coord3D
    g_node: int


@dataclass(frozen=True)
class MakeVNodeAncilla:
    v_node: Coord3D


@dataclass(frozen=True)
class StoreVNode:
    v_node: Coord3D


@dataclass(frozen=True)
class RetrieveVNode:
    v_node: Coord3D  # the stored node's original coordinate
    position: Coord3D  # where it re-materializes


@dataclass(frozen=True)
class EnableSpatialVEdge:
    v_node: Coord3D
    adjacent_v_node: Coord3D


@dataclass(frozen=True)
class EnableTemporalVEdge:
    v_node: Coord3D
    adjacent_v_node: Coord3D


Instruction = Union[
    MapVNode,
    MakeVNodeAncilla,
    StoreVNode,
    RetrieveVNode,
    EnableSpatialVEdge,
    EnableTemporalVEdge,
]


def lower_ir(ir: FlexLatticeIR) -> list[Instruction]:
    """Translate an IR program to the instruction stream, layer by layer.

    Three temporal situations:

    * a **worldline** node (a stored node re-emerging from the virtual
      memory) lowers to ``store_v_node`` on its predecessor's layer and
      ``retrieve_v_node`` on its own layer — the retrieve *is* the node;
    * a temporal edge landing on a resident (graph/ancilla) node from the
      directly preceding layer lowers to ``enable_temporal_v_edge``;
    * a cross-layer edge landing on a resident node lowers to the paper's
      store / retrieve-at-``n-1`` / enable triple, the retrieved photons
      passing *in transit* through layer ``n - 1`` without occupying its
      resident slot (the Section 6.3 non-conflict note).

    Each layer emits its nodes row-major, then the temporal landings and
    direct enables that end on it, its spatial edges in sorted order, and
    the stores and in-transit retrieves that leave it.  Nodes and edges
    are sorted once and grouped by layer, so the stream costs one sort of
    each rather than one per layer.
    """
    program: list[Instruction] = []
    stores: dict[int, list[Coord3D]] = {}
    transit_retrieves: dict[int, list[tuple[Coord3D, Coord3D]]] = {}
    landings: dict[int, list[tuple[Coord3D, Coord3D]]] = {}
    direct_enables: dict[int, list[tuple[Coord3D, Coord3D]]] = {}
    nodes_by_layer: dict[int, list[Coord3D]] = {}
    spatial_by_layer: dict[int, list[tuple[Coord3D, Coord3D]]] = {}
    role = ir.role

    for earlier, later in ir.temporal_edges():
        if role[later] == ROLE_WORLDLINE:
            stores.setdefault(earlier[2], []).append(earlier)
            # The retrieve itself is emitted in the node phase of `later`'s
            # layer, keyed off the node's temporal_prev.
        elif later[2] == earlier[2] + 1:
            direct_enables.setdefault(later[2], []).append((earlier, later))
        else:
            stores.setdefault(earlier[2], []).append(earlier)
            waypoint = (later[0], later[1], later[2] - 1)
            transit_retrieves.setdefault(later[2] - 1, []).append((earlier, waypoint))
            landings.setdefault(later[2], []).append((waypoint, later))
    for coord in sorted(role):
        nodes_by_layer.setdefault(coord[2], []).append(coord)
    for edge in sorted(ir.spatial_edges):
        spatial_by_layer.setdefault(edge[0][2], []).append(edge)

    for layer in range(ir.layer_count):
        for coord in nodes_by_layer.get(layer, ()):
            node_role = role[coord]
            if node_role == ROLE_GRAPH:
                program.append(MapVNode(v_node=coord, g_node=ir.g_node[coord]))
            elif node_role == ROLE_WORLDLINE:
                previous = ir.temporal_prev.get(coord)
                if previous is None:
                    # A home relocation: the wire end arrived spatially, so
                    # at the instruction level it is ordinary routing wire.
                    program.append(MakeVNodeAncilla(v_node=coord))
                else:
                    program.append(RetrieveVNode(v_node=previous, position=coord))
            else:
                program.append(MakeVNodeAncilla(v_node=coord))
        for waypoint, later in landings.get(layer, ()):
            program.append(
                EnableTemporalVEdge(v_node=waypoint, adjacent_v_node=later)
            )
        for earlier, later in direct_enables.get(layer, ()):
            program.append(
                EnableTemporalVEdge(v_node=earlier, adjacent_v_node=later)
            )
        for a, b in spatial_by_layer.get(layer, ()):
            program.append(EnableSpatialVEdge(v_node=a, adjacent_v_node=b))
        for earlier in stores.get(layer, ()):
            program.append(StoreVNode(v_node=earlier))
        for earlier, waypoint in transit_retrieves.get(layer, ()):
            program.append(RetrieveVNode(v_node=earlier, position=waypoint))
    return program


class InstructionInterpreter:
    """Replays an instruction stream against the virtual-hardware rules.

    Rebuilds a :class:`FlexLatticeIR` from the stream while enforcing
    legality: coordinates are single-use, stores precede retrieves, temporal
    edges respect the one-per-direction rule.  ``run()`` returns the
    reconstructed IR, which tests compare against the original.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.ir = FlexLatticeIR(width)
        self._stored: set[Coord3D] = set()
        self._transit: dict[Coord3D, Coord3D] = {}  # waypoint -> stored coord

    def execute(self, instruction: Instruction) -> None:
        if isinstance(instruction, MapVNode):
            self.ir.add_node(instruction.v_node, ROLE_GRAPH, instruction.g_node)
        elif isinstance(instruction, MakeVNodeAncilla):
            self.ir.add_node(instruction.v_node, ROLE_ANCILLA)
        elif isinstance(instruction, StoreVNode):
            node = self.ir.node_at(instruction.v_node)
            if instruction.v_node in self._stored:
                raise InstructionError(f"{instruction.v_node} stored twice")
            if node.temporal_next is not None:
                raise InstructionError(
                    f"{instruction.v_node} already has a forward temporal edge"
                )
            self._stored.add(instruction.v_node)
        elif isinstance(instruction, RetrieveVNode):
            if instruction.v_node not in self._stored:
                raise InstructionError(
                    f"retrieve of {instruction.v_node}, which is not stored"
                )
            self._stored.discard(instruction.v_node)
            position = instruction.position
            if position[2] <= instruction.v_node[2]:
                raise InstructionError(
                    f"retrieve position {position} does not advance in time"
                )
            if (position[0], position[1]) != (
                instruction.v_node[0],
                instruction.v_node[1],
            ):
                raise InstructionError(
                    "virtual memory is per-coordinate: retrieve of "
                    f"{instruction.v_node} must re-emerge at the same 2D "
                    f"coordinate, not {position}"
                )
            if position in self._transit:
                raise InstructionError(
                    f"two retrievals in transit at {position}"
                )
            if position in self.ir.role:
                # A resident node already sits there: the retrieved photons
                # pass *in transit* (Section 6.3's non-conflict note) and
                # land with the next temporal enable.
                self._transit[position] = instruction.v_node
            else:
                # The retrieve re-materializes the stored node here.
                source = self.ir.node_at(instruction.v_node)
                if source.g_node is not None:
                    self.ir.add_node(position, ROLE_WORLDLINE, source.g_node)
                else:
                    self.ir.add_node(position, ROLE_ANCILLA)
                self.ir.add_temporal_edge(instruction.v_node, position)
        elif isinstance(instruction, EnableSpatialVEdge):
            self.ir.add_spatial_edge(instruction.v_node, instruction.adjacent_v_node)
        elif isinstance(instruction, EnableTemporalVEdge):
            a, b = instruction.v_node, instruction.adjacent_v_node
            if a in self._transit:
                stored = self._transit.pop(a)
                if b[2] != a[2] + 1:
                    raise InstructionError(
                        f"transit at {a} must land on the next layer, not {b}"
                    )
                self.ir.add_temporal_edge(stored, b)
            else:
                if b[2] != a[2] + 1:
                    raise InstructionError(
                        f"direct temporal edge {a}-{b} must join adjacent "
                        "layers; use store/retrieve for cross-layer edges"
                    )
                self.ir.add_temporal_edge(a, b)
        else:
            raise InstructionError(f"unknown instruction {instruction!r}")

    def run(self, program: list[Instruction]) -> FlexLatticeIR:
        for instruction in program:
            self.execute(instruction)
        if self._stored:
            raise InstructionError(
                f"program ended with nodes still stored: {sorted(self._stored)}"
            )
        if self._transit:
            raise InstructionError(
                f"program ended with photons in transit: {sorted(self._transit)}"
            )
        self.ir.validate()
        return self.ir
