"""The offline mapping pass: program graph state -> FlexLattice IR (Section 6.2).

The mapper extends OneQ's graph-state embedding with the paper's three
optimizations:

1. **dynamic scheduling** — candidate nodes come from the front layer of the
   measurement-calculus dependency DAG, updated as nodes are consumed;
2. **occupancy limit** — at most ``occupancy_limit`` (default 25 %) of each
   layer's cells may hold *incomplete* nodes (mapped nodes with unmapped
   edges), reserving room for routing;
3. **refresh** — every ``refresh_every`` layers the virtual memory's
   contents are retrieved and re-stored, bounding the classical memory that
   tracks the accumulated graph information at the price of extra layers.

Mechanics.  A mapped node with unrealized edges is *stored* in the virtual
memory at its home coordinate (the per-coordinate memory of the virtual
hardware).  An edge is realized on whichever layer both endpoint wires can
meet: at either endpoint's mapping layer, or later by retrieving both
worldlines and routing between them.  Every retrieval re-emerges at the
node's home coordinate (FlexLattice temporal edges keep their 2D coordinate)
and consumes that cell on the current layer.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field

from repro.errors import MappingError, MemoryBudgetExceeded
from repro.ir.flexlattice import (
    ROLE_ANCILLA,
    ROLE_GRAPH,
    ROLE_WORLDLINE,
    FlexLatticeIR,
)
from repro.mbqc.dependency import DependencyDAG, FrontLayer
from repro.mbqc.pattern import MeasurementPattern
from repro.offline.routing import LayerGrid, route
from repro.online.timelike import LayerDemand
from repro.utils.gridgeom import Coord2D, Coord3D

#: Classical bytes accounted per stored node per elapsed layer: the physical
#: qubits of a stored wire grow by one layer's worth of graph bookkeeping per
#: RSL the node waits.  Calibrated once (see the "Design substitutions"
#: section of ARCHITECTURE.md, and Table 3) so the paper's 32 GB budget
#: separates 25-qubit from 64-qubit benchmarks.
DEFAULT_BYTES_PER_NODE_LAYER = 4 * 2**20  # 4 MiB


@dataclass
class MemoryEntry:
    """One stored node: where it lives and what it still owes."""

    g_node: int
    home: Coord2D
    last_coord: Coord3D  # newest worldline instance (or original placement)
    stored_layer: int  # layer at which it was last (re-)stored
    pending: set[int] = field(default_factory=set)  # unrealized neighbour ids


@dataclass
class MappingResult:
    """Everything the offline pass hands to the online pass and the harness."""

    ir: FlexLatticeIR
    demands: list[LayerDemand]
    layer_count: int
    refresh_layer_count: int
    peak_memory_bytes: int
    retrievals: int
    deferred_edge_realizations: int
    ancilla_cells: int


class OfflineMapper:
    """Maps a measurement pattern onto the virtual hardware."""

    def __init__(
        self,
        width: int,
        occupancy_limit: float = 0.25,
        refresh_every: int | None = None,
        memory_budget_bytes: int | None = None,
        bytes_per_node_layer: int = DEFAULT_BYTES_PER_NODE_LAYER,
        dynamic_scheduling: bool = True,
        max_idle_layers: int = 8,
    ) -> None:
        if width < 2:
            raise MappingError(f"virtual hardware width must be >= 2, got {width}")
        if not 0.0 < occupancy_limit <= 1.0:
            raise MappingError(
                f"occupancy limit must be in (0, 1], got {occupancy_limit}"
            )
        if refresh_every is not None and refresh_every < 1:
            raise MappingError("refresh_every must be >= 1 layer when given")
        self.width = width
        self.occupancy_limit = occupancy_limit
        self.refresh_every = refresh_every
        self.memory_budget_bytes = memory_budget_bytes
        self.bytes_per_node_layer = bytes_per_node_layer
        self.dynamic_scheduling = dynamic_scheduling
        self.max_idle_layers = max_idle_layers

    # ------------------------------------------------------------------

    def map_pattern(self, pattern: MeasurementPattern) -> MappingResult:
        """Run the mapping; raises on budget violation or impossible layouts."""
        state = _MapperState(self, pattern)
        return state.run()


def placement_cell(
    grid: LayerGrid,
    anchors: list[Coord2D],
    homes: Container[Coord2D],
    neighbor_homes: Container[Coord2D],
) -> Coord2D | None:
    """Where a new node goes: the free cell nearest (total Manhattan
    distance) to its mapped neighbours' ``anchors``.

    Prefer cells that are nobody's home (a node may later need to retrieve
    at its home cell on the same layer another node would occupy), then
    cells that at least aren't a mapped neighbour's home, then any free
    cell — placement must not deadlock, since edges can always be realized
    later through worldline meetings.
    """
    return grid.nearest_free(anchors, homes, neighbor_homes)


def relocation_cell(
    grid: LayerGrid, home: Coord2D, homes: Container[Coord2D]
) -> Coord2D | None:
    """A fresh home for a wire stuck at ``home``: the nearest free cell that
    is nobody's home (``home`` itself included)."""
    return grid.nearest_free([home], homes, None)


class _MapperState:
    """One mapping run's mutable state (kept off the public mapper object)."""

    def __init__(self, mapper: OfflineMapper, pattern: MeasurementPattern) -> None:
        self.mapper = mapper
        self.pattern = pattern
        self.graph = pattern.graph
        dag = DependencyDAG(pattern)
        self.ir = FlexLatticeIR(mapper.width)
        # An entry is forgotten as soon as its pending set empties, so every
        # stored node still owes an edge.
        self.memory: dict[int, MemoryEntry] = {}
        self.consumed: set[int] = set()
        # Kept up to date by ``_consume`` and ``_store``/``_forget`` so a
        # layer costs what changed on it, not the pattern or memory size.
        self.front = FrontLayer(dag)
        self.mapped_neighbor_count = dict.fromkeys(pattern.nodes, 0)
        self.homes: dict[Coord2D, int] = {}  # home -> stored nodes living there
        self.stored_layer_sum = 0  # over memory entries
        # ``(lo, hi) -> (u, v)``: each deferred edge with the endpoint order
        # it is attempted in (see ``_store_leftovers``).
        self.deferred_edges: dict[tuple[int, int], tuple[int, int]] = {}
        self.layer = -1
        self.layers_since_refresh = 0
        self.refresh_layers = 0
        self.peak_memory = 0
        self.retrievals = 0
        self.deferred_realized = 0
        self.ancilla_cells = 0
        if mapper.dynamic_scheduling:
            self._static_position = None
        else:
            # OneQ-style static partition: one global topological order,
            # consumed strictly in sequence.
            self._static_position = {
                node: index for index, node in enumerate(dag.topological_order())
            }

    # -- top level -----------------------------------------------------

    def run(self) -> MappingResult:
        total = len(self.pattern.nodes)
        idle = 0
        while len(self.consumed) < total or self.deferred_edges or self.memory:
            progress = self._map_one_layer()
            idle = 0 if progress else idle + 1
            if idle > self.mapper.max_idle_layers:
                raise MappingError(
                    f"no progress for {idle} layers (at layer {self.layer}): "
                    f"{total - len(self.consumed)} nodes unmapped, "
                    f"{len(self.deferred_edges)} edges deferred "
                    f"(virtual hardware too small?){self._stuck_edges()}"
                )
            self._account_memory()
            if self._refresh_due():
                self._run_refresh()
        return MappingResult(
            ir=self.ir,
            demands=self._derive_demands(),
            layer_count=self.layer + 1,
            refresh_layer_count=self.refresh_layers,
            peak_memory_bytes=self.peak_memory,
            retrievals=self.retrievals,
            deferred_edge_realizations=self.deferred_realized,
            ancilla_cells=self.ancilla_cells,
        )

    def _derive_demands(self) -> list[LayerDemand]:
        """Per-layer time-like connection demands, read off the final IR.

        Cross-layer connections also carry their layer gaps, in the order of
        their sorted ``(earlier, later)`` coordinates, so the online pass
        can enforce the delay-line photon lifetime.
        """
        adjacent = [0] * (self.layer + 1)
        cross: list[tuple[Coord3D, Coord3D]] = []
        for earlier, later in self.ir.temporal_next.items():
            if later[2] - earlier[2] == 1:
                adjacent[later[2]] += 1
            else:
                cross.append((earlier, later))
        cross_gaps: list[list[int]] = [[] for _ in range(self.layer + 1)]
        for earlier, later in sorted(cross):
            cross_gaps[later[2]].append(later[2] - earlier[2])
        return [
            LayerDemand(
                adjacent_connections=adjacent[index],
                cross_connections=len(cross_gaps[index]),
                cross_gaps=tuple(cross_gaps[index]),
            )
            for index in range(self.layer + 1)
        ]

    # -- per-layer mapping ------------------------------------------------

    def _map_one_layer(self) -> bool:
        self.layer += 1
        self.layers_since_refresh += 1
        grid = LayerGrid(self.mapper.width)
        placed_here: dict[int, Coord2D] = {}  # g_node -> cell (residents + worldlines)
        incomplete_here = 0
        progress = False
        limit = max(1, int(self.mapper.occupancy_limit * self.mapper.width**2))

        # Phase 1: realize deferred edges between stored worldlines first —
        # retiring memory takes precedence over growing it, which keeps the
        # live population (and therefore refresh cost) bounded.
        deferred = self.deferred_edges
        for key in sorted(deferred):
            u, v = deferred[key]
            if self._try_realize_deferred(u, v, grid, placed_here):
                del deferred[key]
                self.deferred_realized += 1
                progress = True

        # Phase 2: place new nodes from the scheduler's candidate list.  A
        # full layer has no cell left for any of them.
        for g_node in self._candidates():
            if incomplete_here >= limit or grid.full:
                break
            pending = self._try_place(g_node, grid, placed_here)
            if pending is None:
                continue
            progress = True
            if pending:
                incomplete_here += 1

        # End of layer: every on-layer node with pending edges is stored.
        self._store_leftovers(placed_here)
        return progress

    def _candidates(self) -> list[int]:
        if self._static_position is not None:
            # Static partition (the OneQ inheritance): the fixed topological
            # order, no priority reshuffling as the mapping evolves.
            return sorted(self.front.ready, key=self._static_position.__getitem__)
        front = sorted(self.front.ready)
        # Prefer nodes with many already-mapped neighbours: they retire
        # pending edges (and therefore memory) fastest.
        front.sort(key=self.mapped_neighbor_count.__getitem__, reverse=True)
        return front

    def _consume(self, g_node: int) -> None:
        """Mark ``g_node`` mapped: the front layer and neighbour counts follow."""
        self.consumed.add(g_node)
        self.front.consume(g_node)
        mapped = self.mapped_neighbor_count
        for nb in self.graph.neighbors(g_node):
            mapped[nb] += 1

    def _store(self, entry: MemoryEntry) -> None:
        self.memory[entry.g_node] = entry
        self.homes[entry.home] = self.homes.get(entry.home, 0) + 1
        self.stored_layer_sum += entry.stored_layer

    def _forget(self, g_node: int) -> None:
        entry = self.memory.pop(g_node)
        self._unhome(entry.home)
        self.stored_layer_sum -= entry.stored_layer

    def _restamp(self, entry: MemoryEntry, coord: Coord3D) -> None:
        """Record ``coord``, on the current layer, as the entry's newest wire."""
        self.stored_layer_sum += coord[2] - entry.stored_layer
        entry.last_coord = coord
        entry.stored_layer = coord[2]

    def _unhome(self, home: Coord2D) -> None:
        count = self.homes[home] - 1
        if count:
            self.homes[home] = count
        else:
            del self.homes[home]

    def _retrieve(self, entry: MemoryEntry) -> None:
        """Re-emerge a stored node at its home on the current layer: a
        worldline node, temporally joined to the node's newest wire."""
        home = entry.home
        coord = (home[0], home[1], self.layer)
        self.ir.add_node(coord, ROLE_WORLDLINE, entry.g_node)
        self.ir.add_temporal_edge(entry.last_coord, coord)
        self.retrievals += 1
        self._restamp(entry, coord)

    def _lay_wire(self, start: Coord2D, wire: list[Coord2D], grid: LayerGrid) -> Coord3D:
        """Ancillas on ``wire``'s cells, spatially chained from ``start``;
        returns the coordinate of the chain's last node."""
        layer = self.layer
        ir = self.ir
        previous = (start[0], start[1], layer)
        for step in wire:
            grid.occupy(step, "ancilla")
            coord = (step[0], step[1], layer)
            ir.add_node(coord, ROLE_ANCILLA, None)
            ir.add_spatial_edge(previous, coord)
            previous = coord
        self.ancilla_cells += len(wire)
        return previous

    def _retire(self, u: int, v: int) -> None:
        """The edge (u, v) is realized: neither endpoint owes it any more."""
        memory = self.memory
        for node, other in ((u, v), (v, u)):
            entry = memory.get(node)
            if entry is not None:
                entry.pending.discard(other)
                if not entry.pending:
                    self._forget(node)

    # -- placement --------------------------------------------------------

    def _try_place(
        self,
        g_node: int,
        grid: LayerGrid,
        placed_here: dict[int, Coord2D],
    ) -> set[int] | None:
        """Attempt to place ``g_node`` and realize what edges it can.

        A node realizes at most four edges on its own layer (its cell has
        four sides); edges to mapped neighbours that cannot be routed now are
        deferred to later layers, where both worldlines meet (Phase 2).
        Returns the node's unrealized-neighbour set on success (may be
        empty), ``None`` if no cell was available this layer.
        """
        neighbors = self.graph.neighbors(g_node)
        consumed = self.consumed
        memory = self.memory
        mapped_neighbors: list[int] = []
        anchors: list[Coord2D] = []
        neighbor_homes: set[Coord2D] = set()
        for nb in neighbors:
            if nb not in consumed:
                continue
            # A stored node on this layer sits at its home, so the home is
            # its position either way.
            entry = memory.get(nb)
            if entry is not None:
                anchors.append(entry.home)
                neighbor_homes.add(entry.home)
            elif nb in placed_here:
                anchors.append(placed_here[nb])
            else:
                raise MappingError(
                    f"neighbour {nb} of {g_node} is mapped but untracked"
                )
            mapped_neighbors.append(nb)

        cell = placement_cell(grid, anchors, self.homes, neighbor_homes)
        if cell is None:
            return None

        grid.occupy(cell, g_node)
        self.ir.add_node((cell[0], cell[1], self.layer), ROLE_GRAPH, g_node)
        self._consume(g_node)
        placed_here[g_node] = cell

        # Nearest neighbours first; ties keep the neighbour order.
        row, col = cell
        ordered = sorted(
            zip(
                [abs(r - row) + abs(c - col) for r, c in anchors],
                range(len(anchors)),
                mapped_neighbors,
            )
        )
        pending = neighbors  # a copy: the graph's own set is untouched
        for _, _, nb in ordered:
            if self._realize_edge(g_node, nb, grid, placed_here):
                pending.discard(nb)
        if pending:
            self._store(
                MemoryEntry(
                    g_node=g_node,
                    home=cell,
                    last_coord=(cell[0], cell[1], self.layer),
                    stored_layer=self.layer,
                    pending=pending,
                )
            )
        return pending

    def _realize_edge(
        self,
        g_node: int,
        nb: int,
        grid: LayerGrid,
        placed_here: dict[int, Coord2D],
    ) -> bool:
        """Route the edge (g_node, nb) on the current layer (one transaction).

        ``g_node`` must be on this layer; ``nb`` is either on this layer or
        retrieved from memory at its home cell.  On failure nothing changes.
        """
        cell = placed_here[g_node]
        entry = None  # set when nb is retrieved
        nb_cell = placed_here.get(nb)
        if nb_cell is None:
            entry = self.memory.get(nb)
            if entry is None or not grid.is_free(entry.home):
                return False
            nb_cell = entry.home
        if nb_cell == cell:
            return False

        if entry is not None:
            grid.occupy(nb_cell, ("worldline", nb))
        wire = route(grid, nb_cell, cell)
        if wire is None:
            if entry is not None:
                grid.release(nb_cell)
            return False

        if entry is not None:
            self._retrieve(entry)
            placed_here[nb] = nb_cell
        previous = self._lay_wire(nb_cell, wire, grid)
        self.ir.add_spatial_edge(previous, (cell[0], cell[1], self.layer))
        self._retire(nb, g_node)
        return True

    def _stuck_edges(self, limit: int = 8) -> str:
        """The first ``limit`` deferred edges, sorted, with both homes."""
        if not self.deferred_edges:
            return ""

        def home(node: int) -> str:
            entry = self.memory.get(node)
            return "untracked" if entry is None else str(entry.home)

        edges = sorted(self.deferred_edges)
        shown = ", ".join(f"{u}@{home(u)}-{v}@{home(v)}" for u, v in edges[:limit])
        more = f", ... {len(edges) - limit} more" if len(edges) > limit else ""
        return f"; stuck edges (node@home): {shown}{more}"

    def _try_realize_deferred(
        self,
        u: int,
        v: int,
        grid: LayerGrid,
        placed_here: dict[int, Coord2D],
    ) -> bool:
        """Realize a deferred edge by meeting both worldlines on this layer.

        A stored endpoint re-emerges at its home, so the attempt ends before
        touching the layer when that cell is taken (most attempts do).  The
        wire is routed from ``u`` to ``v``.
        """
        memory = self.memory
        u_entry = v_entry = None  # set for an endpoint retrieved from memory
        u_cell = placed_here.get(u)
        if u_cell is None:
            u_entry = memory.get(u)
            if u_entry is None:
                raise MappingError(f"deferred edge endpoint {u} untracked")
            u_cell = u_entry.home
            if not grid.is_free(u_cell):
                return False
        v_cell = placed_here.get(v)
        if v_cell is None:
            v_entry = memory.get(v)
            if v_entry is None:
                raise MappingError(f"deferred edge endpoint {v} untracked")
            v_cell = v_entry.home
            if not grid.is_free(v_cell):
                return False
        if u_cell == v_cell:
            # Both wires live at the same coordinate (placed there on
            # different layers).  Relocate one of them to a fresh home so the
            # edge becomes realizable on a later layer.
            mover = u if u in memory else v
            return self._relocate_home(mover, grid, placed_here)

        if u_entry is not None:
            grid.occupy(u_cell, ("worldline", u))
        if v_entry is not None:
            grid.occupy(v_cell, ("worldline", v))
        wire = route(grid, u_cell, v_cell)
        if wire is None:
            if u_entry is not None:
                grid.release(u_cell)
            if v_entry is not None:
                grid.release(v_cell)
            return False

        if u_entry is not None:
            self._retrieve(u_entry)
            placed_here[u] = u_cell
        if v_entry is not None:
            self._retrieve(v_entry)
            placed_here[v] = v_cell
        previous = self._lay_wire(u_cell, wire, grid)
        self.ir.add_spatial_edge(previous, (v_cell[0], v_cell[1], self.layer))
        self._retire(u, v)
        return True

    def _relocate_home(
        self,
        g_node: int,
        grid: LayerGrid,
        placed_here: dict[int, Coord2D],
    ) -> bool:
        """Move a stored node's wire to a fresh home coordinate.

        Retrieves the node at its (colliding) home, extends the wire
        spatially to a free cell, and re-stores it there.  Counts as layer
        progress: the deferred edge becomes realizable once the homes differ.
        """
        entry = self.memory.get(g_node)
        if entry is None or g_node in placed_here:
            return False
        home = entry.home
        if not grid.is_free(home):
            return False
        target = relocation_cell(grid, home, self.homes)
        if target is None:
            return False
        grid.occupy(home, ("worldline", g_node))
        wire = route(grid, home, target)
        if wire is None:
            grid.release(home)
            return False
        grid.occupy(target, ("worldline", g_node))

        self._retrieve(entry)
        previous = self._lay_wire(home, wire, grid)
        # The wire's new end arrives spatially (no temporal predecessor) but
        # keeps the program node's identity: it is the same logical wire.
        new_coord = (target[0], target[1], self.layer)
        self.ir.add_node(new_coord, ROLE_WORLDLINE, g_node)
        self.ir.add_spatial_edge(previous, new_coord)
        self._unhome(home)
        entry.home = target
        self.homes[target] = 1
        self._restamp(entry, new_coord)
        placed_here[g_node] = target
        return True

    def _store_leftovers(self, placed_here: dict[int, Coord2D]) -> None:
        """Defer the still-pending edges of this layer's stored nodes whose
        other endpoint is already mapped.

        An edge is attempted in the iteration order of the frozenset that
        first deferred it (CPython's hash-slot order, which for some pairs
        puts the larger id first); the router's direction and the
        relocation mover follow that order, so numeric order would change
        mappings.
        """
        deferred = self.deferred_edges
        consumed = self.consumed
        memory = self.memory
        for g_node in placed_here:
            entry = memory.get(g_node)
            if entry is None:
                continue
            for nb in entry.pending:
                if nb in consumed:
                    key = (g_node, nb) if g_node < nb else (nb, g_node)
                    if key not in deferred:
                        deferred[key] = tuple(frozenset((g_node, nb)))

    # -- memory accounting and refresh ---------------------------------

    def _account_memory(self) -> None:
        # The sum over entries of their layers in memory, in O(1).
        used = self.mapper.bytes_per_node_layer * (
            len(self.memory) * (self.layer + 1) - self.stored_layer_sum
        )
        self.peak_memory = max(self.peak_memory, used)
        budget = self.mapper.memory_budget_bytes
        if budget is not None and used > budget:
            raise MemoryBudgetExceeded(used, budget)

    def _refresh_due(self) -> bool:
        return (
            self.mapper.refresh_every is not None
            and self.layers_since_refresh >= self.mapper.refresh_every
            and bool(self.memory)
        )

    def _run_refresh(self) -> None:
        """Retrieve and re-store every memory entry across dedicated layers.

        Each refresh layer retrieves a batch of entries (at their distinct
        home cells) and stores them again, resetting their accumulated wire
        — the memory-for-#RSL trade of Table 3.
        """
        entries = list(self.memory.values())
        batch_capacity = max(1, self.mapper.width**2)
        index = 0
        while index < len(entries):
            self.layer += 1
            self.refresh_layers += 1
            used_homes: set[Coord2D] = set()
            while index < len(entries) and len(used_homes) < batch_capacity:
                entry = entries[index]
                if entry.home in used_homes:
                    break  # home conflict: push to the next refresh layer
                used_homes.add(entry.home)
                self._retrieve(entry)
                index += 1
        self.layers_since_refresh = 0
