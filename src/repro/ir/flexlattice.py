"""The FlexLattice intermediate representation (Section 6).

A FlexLattice IR program lives on the *virtual hardware*: consecutive layers
of fixed-size 2D lattices with a virtual memory at every 2D coordinate.  Its
structural rules (Section 6.1):

1. nodes sit at ``(row, col, layer)`` coordinates of the (2+1)-D grid;
2. nodes at the same 2D coordinate of different layers — adjacent or not —
   can be joined by *temporal* edges (non-adjacent ones ride the virtual
   memory);
3. every connection is individually on-demand, and each node has **at most
   one** temporal edge to preceding layers and **at most one** to subsequent
   layers.

Spatial edges join 4-adjacent nodes within a layer.  Nodes are either mapped
program-graph nodes or ancillas (routing wire).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IRError
from repro.utils.gridgeom import Coord3D

#: Node roles.  A *graph* node is where a program qubit is measured; its
#: *worldline* nodes are later retrievals of the same logical qubit from the
#: virtual memory (measured as wire, but carrying the qubit's identity);
#: *ancilla* nodes are anonymous routing wire.
ROLE_GRAPH = "graph"
ROLE_WORLDLINE = "worldline"
ROLE_ANCILLA = "ancilla"


@dataclass
class VNode:
    """One virtual-hardware node of the IR program."""

    coord: Coord3D  # (row, col, layer)
    role: str = ROLE_ANCILLA
    g_node: int | None = None  # program graph node id (graph/worldline roles)
    temporal_prev: Coord3D | None = None
    temporal_next: Coord3D | None = None

    def __post_init__(self) -> None:
        role = self.role
        if role == ROLE_ANCILLA:
            if self.g_node is not None:
                raise IRError(f"ancilla at {self.coord} cannot carry a g_node id")
        elif role == ROLE_GRAPH or role == ROLE_WORLDLINE:
            if self.g_node is None:
                raise IRError(f"{role} node at {self.coord} must carry a g_node id")
        else:
            raise IRError(f"unknown node role {role!r}")


class FlexLatticeIR:
    """A FlexLattice program: nodes, spatial edges, temporal edges."""

    def __init__(self, width: int) -> None:
        if width < 1:
            raise IRError(f"virtual hardware width must be >= 1, got {width}")
        self.width = width
        self.nodes: dict[Coord3D, VNode] = {}
        self.spatial_edges: set[frozenset[Coord3D]] = set()

    # ------------------------------------------------------------------

    @property
    def layer_count(self) -> int:
        """Number of layers touched (max layer index + 1)."""
        if not self.nodes:
            return 0
        return 1 + max(coord[2] for coord in self.nodes)

    def add_node(self, coord: Coord3D, role: str, g_node: int | None = None) -> VNode:
        """Place a node; each coordinate can be used at most once."""
        row, col, layer = coord
        width = self.width
        if not (0 <= row < width and 0 <= col < width):
            raise IRError(f"{coord} outside the {width}x{width} layer")
        if layer < 0:
            raise IRError(f"negative layer in {coord}")
        if coord in self.nodes:
            raise IRError(f"coordinate {coord} is already occupied")
        node = self.nodes[coord] = VNode(coord, role, g_node)
        return node

    def node_at(self, coord: Coord3D) -> VNode:
        try:
            return self.nodes[coord]
        except KeyError as exc:
            raise IRError(f"no node at {coord}") from exc

    # The two edge methods run once per wire step of a mapping, so they
    # check membership inline rather than through ``node_at``.

    def add_spatial_edge(self, a: Coord3D, b: Coord3D) -> None:
        """Join two 4-adjacent nodes of the same layer."""
        nodes = self.nodes
        if a not in nodes:
            raise IRError(f"no node at {a}")
        if b not in nodes:
            raise IRError(f"no node at {b}")
        if a[2] != b[2]:
            raise IRError(f"spatial edge {a}-{b} spans layers")
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise IRError(f"spatial edge {a}-{b} joins non-adjacent coordinates")
        key = frozenset((a, b))
        if key in self.spatial_edges:
            raise IRError(f"spatial edge {a}-{b} already enabled")
        self.spatial_edges.add(key)

    def add_temporal_edge(self, earlier: Coord3D, later: Coord3D) -> None:
        """Join two nodes at the same 2D coordinate on different layers.

        Enforces rule 3: one temporal edge per direction per node.
        """
        nodes = self.nodes
        node_earlier = nodes.get(earlier)
        if node_earlier is None:
            raise IRError(f"no node at {earlier}")
        node_later = nodes.get(later)
        if node_later is None:
            raise IRError(f"no node at {later}")
        if earlier[0] != later[0] or earlier[1] != later[1]:
            raise IRError(
                f"temporal edge {earlier}-{later} must keep the 2D coordinate"
            )
        if not earlier[2] < later[2]:
            raise IRError(f"temporal edge {earlier}-{later} must go forward in time")
        if node_earlier.temporal_next is not None:
            raise IRError(f"{earlier} already has a temporal edge to a later layer")
        if node_later.temporal_prev is not None:
            raise IRError(f"{later} already has a temporal edge to an earlier layer")
        node_earlier.temporal_next = later
        node_later.temporal_prev = earlier

    # ------------------------------------------------------------------

    def temporal_edges(self) -> list[tuple[Coord3D, Coord3D]]:
        """All temporal edges as (earlier, later) pairs."""
        return sorted(
            (node.coord, node.temporal_next)
            for node in self.nodes.values()
            if node.temporal_next is not None
        )

    def layer_nodes(self, layer: int) -> list[VNode]:
        """Nodes on ``layer``, row-major."""
        return sorted(
            (node for node in self.nodes.values() if node.coord[2] == layer),
            key=lambda node: node.coord,
        )

    def graph_nodes(self) -> dict[int, Coord3D]:
        """Map from program graph node id to its coordinate."""
        placed: dict[int, Coord3D] = {}
        for node in self.nodes.values():
            if node.role == ROLE_GRAPH:
                if node.g_node in placed:
                    raise IRError(f"g_node {node.g_node} mapped twice")
                placed[node.g_node] = node.coord
        return placed

    def validate(self) -> None:
        """Re-check all structural invariants (cheap; used by tests)."""
        for key in self.spatial_edges:
            a, b = tuple(key)
            if a not in self.nodes or b not in self.nodes:
                raise IRError(f"spatial edge {a}-{b} references missing nodes")
        for node in self.nodes.values():
            if node.temporal_next is not None:
                other = self.node_at(node.temporal_next)
                if other.temporal_prev != node.coord:
                    raise IRError(
                        f"temporal edge {node.coord}->{node.temporal_next} "
                        "is not mirrored"
                    )
        self.graph_nodes()  # raises on duplicates

    def structurally_equal(self, other: "FlexLatticeIR") -> bool:
        """Same coordinates, edges, temporal links and program placements.

        Node roles may differ between ``worldline`` and ``ancilla``: the
        instruction stream measures both as wire, so a lower-then-reinterpret
        round trip legitimately forgets which wires extend program nodes.
        """
        if self.width != other.width:
            return False
        if set(self.nodes) != set(other.nodes):
            return False
        if self.spatial_edges != other.spatial_edges:
            return False
        if self.temporal_edges() != other.temporal_edges():
            return False
        for coord, node in self.nodes.items():
            twin = other.nodes[coord]
            if (node.role == ROLE_GRAPH) != (twin.role == ROLE_GRAPH):
                return False
            if node.role == ROLE_GRAPH and node.g_node != twin.g_node:
                return False
        return True

    def connected_graph_pairs(self) -> set[frozenset[int]]:
        """Pairs of program nodes joined by IR wires.

        A wire is a chain of ancilla nodes (spatial + temporal edges); its
        endpoints resolve to program node ids, with worldline nodes counting
        as their underlying ``g_node``.  Used by the tests to assert the
        mapping realizes exactly the program graph state's edge set.
        """
        from repro.utils.dsu import DisjointSet

        def identity(coord: Coord3D) -> int | None:
            node = self.nodes[coord]
            return node.g_node  # None exactly for anonymous ancillas

        dsu: DisjointSet = DisjointSet(self.nodes.keys())
        adjacency: dict[Coord3D, list[Coord3D]] = {c: [] for c in self.nodes}
        for key in self.spatial_edges:
            a, b = tuple(key)
            adjacency[a].append(b)
            adjacency[b].append(a)
        for earlier, later in self.temporal_edges():
            adjacency[earlier].append(later)
            adjacency[later].append(earlier)
        # Merge anonymous-ancilla chains into wires.
        for coord, neighbors in adjacency.items():
            if identity(coord) is not None:
                continue
            for other in neighbors:
                if identity(other) is None:
                    dsu.union(coord, other)
        pairs: set[frozenset[int]] = set()
        wire_ends: dict[Coord3D, set[int]] = {}
        for coord, neighbors in adjacency.items():
            own = identity(coord)
            if own is None:
                continue
            for other in neighbors:
                other_id = identity(other)
                if other_id is not None:
                    if other_id != own:
                        pairs.add(frozenset((own, other_id)))
                else:
                    wire_ends.setdefault(dsu.find(other), set()).add(own)
        for endpoints in wire_ends.values():
            unique = sorted(endpoints)
            if len(unique) == 2:
                pairs.add(frozenset(unique))
            elif len(unique) > 2:
                raise IRError(
                    f"an ancilla wire touches more than two program nodes: {unique}"
                )
        return pairs
