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

The IR is stored as columns: plain dicts keyed by coordinate (role, program
node id, temporal predecessor and successor) and a set of canonical
``(lower, higher)`` coordinate pairs for the spatial edges.  Everything in
them is an int, a string or a tuple of those, which CPython's cyclic
garbage collector stops tracking, so a finished mapping of ~10^5 nodes
costs the collector a handful of objects rather than one per node and edge.
:class:`VNode` is a snapshot built on read.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
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


@dataclass(frozen=True)
class VNode:
    """One virtual-hardware node of the IR program, as read off the columns.

    A snapshot: the IR does not keep it, so it cannot be edited in place.
    """

    coord: Coord3D  # (row, col, layer)
    role: str = ROLE_ANCILLA
    g_node: int | None = None  # program graph node id (graph/worldline roles)
    temporal_prev: Coord3D | None = None
    temporal_next: Coord3D | None = None


class NodeView(Mapping):
    """Read-only ``coord -> VNode`` view of an IR's nodes, in insertion order."""

    __slots__ = ("_ir",)

    def __init__(self, ir: FlexLatticeIR) -> None:
        self._ir = ir

    def __getitem__(self, coord: Coord3D) -> VNode:
        ir = self._ir
        return VNode(
            coord,
            ir.role[coord],
            ir.g_node.get(coord),
            ir.temporal_prev.get(coord),
            ir.temporal_next.get(coord),
        )

    def __contains__(self, coord: object) -> bool:
        return coord in self._ir.role

    def __iter__(self) -> Iterator[Coord3D]:
        return iter(self._ir.role)

    def __len__(self) -> int:
        return len(self._ir.role)


class FlexLatticeIR:
    """A FlexLattice program: nodes, spatial edges, temporal edges.

    The columns are public for reading; write only through the ``add_*``
    methods, which enforce the structural rules.

    * ``role``: coord -> node role, one entry per node in placement order;
    * ``g_node``: coord -> program node id, for graph and worldline nodes;
    * ``temporal_prev`` / ``temporal_next``: coord -> the coordinate its
      temporal edge to an earlier / later layer lands on;
    * ``spatial_edges``: ``(lower, higher)`` coordinate pairs.
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise IRError(f"virtual hardware width must be >= 1, got {width}")
        self.width = width
        self.role: dict[Coord3D, str] = {}
        self.g_node: dict[Coord3D, int] = {}
        self.temporal_prev: dict[Coord3D, Coord3D] = {}
        self.temporal_next: dict[Coord3D, Coord3D] = {}
        self.spatial_edges: set[tuple[Coord3D, Coord3D]] = set()

    # ------------------------------------------------------------------

    @property
    def nodes(self) -> NodeView:
        """Every node as a read-only ``coord -> VNode`` mapping."""
        return NodeView(self)

    @property
    def layer_count(self) -> int:
        """Number of layers touched (max layer index + 1)."""
        if not self.role:
            return 0
        return 1 + max(coord[2] for coord in self.role)

    def add_node(self, coord: Coord3D, role: str, g_node: int | None = None) -> None:
        """Place a node; each coordinate can be used at most once."""
        row, col, layer = coord
        width = self.width
        if not (0 <= row < width and 0 <= col < width):
            raise IRError(f"{coord} outside the {width}x{width} layer")
        if layer < 0:
            raise IRError(f"negative layer in {coord}")
        if coord in self.role:
            raise IRError(f"coordinate {coord} is already occupied")
        if role == ROLE_ANCILLA:
            if g_node is not None:
                raise IRError(f"ancilla at {coord} cannot carry a g_node id")
        elif role == ROLE_GRAPH or role == ROLE_WORLDLINE:
            if g_node is None:
                raise IRError(f"{role} node at {coord} must carry a g_node id")
            self.g_node[coord] = g_node
        else:
            raise IRError(f"unknown node role {role!r}")
        self.role[coord] = role

    def node_at(self, coord: Coord3D) -> VNode:
        try:
            return self.nodes[coord]
        except KeyError as exc:
            raise IRError(f"no node at {coord}") from exc

    # The two edge methods run once per wire step of a mapping, so they
    # check membership inline rather than through ``node_at``.

    def add_spatial_edge(self, a: Coord3D, b: Coord3D) -> None:
        """Join two 4-adjacent nodes of the same layer."""
        role = self.role
        if a not in role:
            raise IRError(f"no node at {a}")
        if b not in role:
            raise IRError(f"no node at {b}")
        if a[2] != b[2]:
            raise IRError(f"spatial edge {a}-{b} spans layers")
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise IRError(f"spatial edge {a}-{b} joins non-adjacent coordinates")
        key = (a, b) if a < b else (b, a)
        if key in self.spatial_edges:
            raise IRError(f"spatial edge {a}-{b} already enabled")
        self.spatial_edges.add(key)

    def add_temporal_edge(self, earlier: Coord3D, later: Coord3D) -> None:
        """Join two nodes at the same 2D coordinate on different layers.

        Enforces rule 3: one temporal edge per direction per node.
        """
        role = self.role
        if earlier not in role:
            raise IRError(f"no node at {earlier}")
        if later not in role:
            raise IRError(f"no node at {later}")
        if earlier[0] != later[0] or earlier[1] != later[1]:
            raise IRError(
                f"temporal edge {earlier}-{later} must keep the 2D coordinate"
            )
        if not earlier[2] < later[2]:
            raise IRError(f"temporal edge {earlier}-{later} must go forward in time")
        if earlier in self.temporal_next:
            raise IRError(f"{earlier} already has a temporal edge to a later layer")
        if later in self.temporal_prev:
            raise IRError(f"{later} already has a temporal edge to an earlier layer")
        self.temporal_next[earlier] = later
        self.temporal_prev[later] = earlier

    # ------------------------------------------------------------------

    def temporal_edges(self) -> list[tuple[Coord3D, Coord3D]]:
        """All temporal edges as (earlier, later) pairs."""
        return sorted(self.temporal_next.items())

    def layer_nodes(self, layer: int) -> list[VNode]:
        """Nodes on ``layer``, row-major."""
        nodes = self.nodes
        return [
            nodes[coord] for coord in sorted(c for c in self.role if c[2] == layer)
        ]

    def graph_nodes(self) -> dict[int, Coord3D]:
        """Map from program graph node id to its coordinate."""
        placed: dict[int, Coord3D] = {}
        g_node = self.g_node
        for coord, role in self.role.items():
            if role == ROLE_GRAPH:
                node_id = g_node[coord]
                if node_id in placed:
                    raise IRError(f"g_node {node_id} mapped twice")
                placed[node_id] = coord
        return placed

    def validate(self) -> None:
        """Re-check all structural invariants (cheap; used by tests)."""
        role = self.role
        for a, b in self.spatial_edges:
            if a not in role or b not in role:
                raise IRError(f"spatial edge {a}-{b} references missing nodes")
        for earlier, later in self.temporal_next.items():
            if later not in role:
                raise IRError(f"no node at {later}")
            if self.temporal_prev.get(later) != earlier:
                raise IRError(f"temporal edge {earlier}->{later} is not mirrored")
        self.graph_nodes()  # raises on duplicates

    def structurally_equal(self, other: "FlexLatticeIR") -> bool:
        """Same coordinates, edges, temporal links and program placements.

        Node roles may differ between ``worldline`` and ``ancilla``: the
        instruction stream measures both as wire, so a lower-then-reinterpret
        round trip legitimately forgets which wires extend program nodes.
        """
        if self.width != other.width:
            return False
        if self.role.keys() != other.role.keys():
            return False
        if self.spatial_edges != other.spatial_edges:
            return False
        if self.temporal_next != other.temporal_next:
            return False
        for coord, role in self.role.items():
            twin = other.role[coord]
            if (role == ROLE_GRAPH) != (twin == ROLE_GRAPH):
                return False
            if role == ROLE_GRAPH and self.g_node[coord] != other.g_node[coord]:
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

        identity = self.g_node.get  # None exactly for anonymous ancillas
        dsu: DisjointSet = DisjointSet(self.role)
        adjacency: dict[Coord3D, list[Coord3D]] = {c: [] for c in self.role}
        for a, b in self.spatial_edges:
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
