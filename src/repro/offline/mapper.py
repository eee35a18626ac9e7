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

    @property
    def logical_layer_count(self) -> int:
        """Layers the online pass must realize (mapping + refresh layers)."""
        return self.layer_count


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

    def tier(cell: Coord2D) -> int:
        if cell not in homes:
            return 0
        return 1 if cell not in neighbor_homes else 2

    return grid.nearest_free(anchors, tier)


def relocation_cell(
    grid: LayerGrid, home: Coord2D, homes: Container[Coord2D]
) -> Coord2D | None:
    """A fresh home for a wire stuck at ``home``: the nearest free cell that
    is nobody's home (``home`` itself included)."""
    return grid.nearest_free([home], lambda cell: None if cell in homes else 0)


class _MapperState:
    """One mapping run's mutable state (kept off the public mapper object)."""

    def __init__(self, mapper: OfflineMapper, pattern: MeasurementPattern) -> None:
        self.mapper = mapper
        self.pattern = pattern
        self.graph = pattern.graph
        dag = DependencyDAG(pattern)
        self.ir = FlexLatticeIR(mapper.width)
        self.memory: dict[int, MemoryEntry] = {}
        self.consumed: set[int] = set()
        # Kept up to date by ``_consume`` and ``_store``/``_forget`` so a
        # layer costs what changed on it, not the pattern or memory size.
        self.front = FrontLayer(dag)
        self.mapped_neighbor_count = dict.fromkeys(pattern.nodes, 0)
        self.homes: dict[Coord2D, int] = {}  # home -> stored nodes living there
        self.stored_layer_sum = 0  # over memory entries
        self.deferred_edges: set[frozenset[int]] = set()
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
        while len(self.consumed) < total or self.deferred_edges or self._memory_dirty():
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

        Cross-layer connections also carry their layer gaps so the online
        pass can enforce the delay-line photon lifetime.
        """
        adjacent = [0] * (self.layer + 1)
        cross_gaps: list[list[int]] = [[] for _ in range(self.layer + 1)]
        for earlier, later in self.ir.temporal_edges():
            gap = later[2] - earlier[2]
            if gap == 1:
                adjacent[later[2]] += 1
            else:
                cross_gaps[later[2]].append(gap)
        return [
            LayerDemand(
                adjacent_connections=adjacent[index],
                cross_connections=len(cross_gaps[index]),
                cross_gaps=tuple(cross_gaps[index]),
            )
            for index in range(self.layer + 1)
        ]

    def _memory_dirty(self) -> bool:
        """Whether any stored node still owes edges."""
        return any(entry.pending for entry in self.memory.values())

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
        for edge in sorted(self.deferred_edges, key=sorted):
            u, v = tuple(edge)
            if self._try_realize_deferred(u, v, grid, placed_here):
                self.deferred_edges.discard(edge)
                self.deferred_realized += 1
                progress = True

        # Phase 2: place new nodes from the scheduler's candidate list.  A
        # full layer has no cell left for any of them.
        cell_count = self.mapper.width**2
        for g_node in self._candidates():
            if incomplete_here >= limit or len(grid.cells) == cell_count:
                break
            outcome = self._try_place(g_node, grid, placed_here)
            if outcome is None:
                continue
            progress = True
            pending_after = outcome
            if pending_after:
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
        mapped_neighbors = [nb for nb in neighbors if nb in self.consumed]

        anchors: list[Coord2D] = []
        for nb in mapped_neighbors:
            if nb in placed_here:
                anchors.append(placed_here[nb])
            elif nb in self.memory:
                anchors.append(self.memory[nb].home)
            else:
                raise MappingError(
                    f"neighbour {nb} of {g_node} is mapped but untracked"
                )

        neighbor_homes = {
            self.memory[nb].home for nb in mapped_neighbors if nb in self.memory
        }
        cell = placement_cell(grid, anchors, self.homes, neighbor_homes)
        if cell is None:
            return None

        grid.occupy(cell, g_node)
        self.ir.add_node((cell[0], cell[1], self.layer), ROLE_GRAPH, g_node)
        self._consume(g_node)
        placed_here[g_node] = cell

        def neighbor_position(nb: int) -> Coord2D:
            return placed_here[nb] if nb in placed_here else self.memory[nb].home

        realized: set[int] = set()
        ordered = sorted(
            mapped_neighbors,
            key=lambda nb: abs(neighbor_position(nb)[0] - cell[0])
            + abs(neighbor_position(nb)[1] - cell[1]),
        )
        for nb in ordered:
            if self._realize_edge(g_node, nb, grid, placed_here):
                realized.add(nb)

        pending = set(neighbors) - realized
        if pending:
            self._store(
                MemoryEntry(
                    g_node=g_node,
                    home=cell,
                    last_coord=(cell[0], cell[1], self.layer),
                    stored_layer=self.layer,
                    pending=set(pending),
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
        retrieved = False
        if nb in placed_here:
            nb_cell = placed_here[nb]
        elif nb in self.memory:
            entry = self.memory[nb]
            if not grid.is_free(entry.home):
                return False
            nb_cell = entry.home
            retrieved = True
        else:
            return False
        if nb_cell == cell:
            return False

        if retrieved:
            grid.occupy(nb_cell, ("worldline", nb))
        wire = route(grid, nb_cell, cell)
        if wire is None:
            if retrieved:
                grid.release(nb_cell)
            return False

        layer = self.layer
        if retrieved:
            entry = self.memory[nb]
            coord = (nb_cell[0], nb_cell[1], layer)
            self.ir.add_node(coord, ROLE_WORLDLINE, nb)
            self.ir.add_temporal_edge(entry.last_coord, coord)
            self.retrievals += 1
            self._restamp(entry, coord)
            placed_here[nb] = nb_cell
        previous = nb_cell
        for step in wire:
            grid.occupy(step, "ancilla")
            self.ir.add_node((step[0], step[1], layer), ROLE_ANCILLA, None)
            self.ir.add_spatial_edge(
                (previous[0], previous[1], layer), (step[0], step[1], layer)
            )
            previous = step
            self.ancilla_cells += 1
        self.ir.add_spatial_edge(
            (previous[0], previous[1], layer), (cell[0], cell[1], layer)
        )

        # Retire the pending obligation on both sides.
        if nb in self.memory:
            self.memory[nb].pending.discard(g_node)
            if not self.memory[nb].pending:
                self._forget(nb)
        if g_node in self.memory:
            self.memory[g_node].pending.discard(nb)
            if not self.memory[g_node].pending:
                self._forget(g_node)
        return True

    def _stuck_edges(self, limit: int = 8) -> str:
        """The first ``limit`` deferred edges, sorted, with both homes."""
        if not self.deferred_edges:
            return ""

        def home(node: int) -> str:
            entry = self.memory.get(node)
            return "untracked" if entry is None else str(entry.home)

        edges = sorted(tuple(sorted(edge)) for edge in self.deferred_edges)
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
        """Realize a deferred edge by meeting both worldlines on this layer."""
        positions: dict[int, Coord2D] = {}
        to_retrieve: list[int] = []
        for node in (u, v):
            if node in placed_here:
                positions[node] = placed_here[node]
            elif node in self.memory:
                entry = self.memory[node]
                if not grid.is_free(entry.home):
                    return False
                positions[node] = entry.home
                to_retrieve.append(node)
            else:
                raise MappingError(f"deferred edge endpoint {node} untracked")
        if positions[u] == positions[v]:
            # Both wires live at the same coordinate (placed there on
            # different layers).  Relocate one of them to a fresh home so the
            # edge becomes realizable on a later layer.
            mover = u if u in self.memory else v
            return self._relocate_home(mover, grid, placed_here)

        allocations: list[Coord2D] = []
        for node in to_retrieve:
            home = self.memory[node].home
            grid.occupy(home, ("worldline", node))
            allocations.append(home)
        wire = route(grid, positions[u], positions[v])
        if wire is None:
            for cell in allocations:
                grid.release(cell)
            return False

        for node in to_retrieve:
            entry = self.memory[node]
            coord = (entry.home[0], entry.home[1], self.layer)
            self.ir.add_node(coord, ROLE_WORLDLINE, node)
            self.ir.add_temporal_edge(entry.last_coord, coord)
            self.retrievals += 1
            self._restamp(entry, coord)
            placed_here[node] = entry.home
        previous = positions[u]
        for step in wire:
            grid.occupy(step, "ancilla")
            coord = (step[0], step[1], self.layer)
            self.ir.add_node(coord, ROLE_ANCILLA, None)
            self.ir.add_spatial_edge(
                (previous[0], previous[1], self.layer), coord
            )
            previous = step
            self.ancilla_cells += 1
        self.ir.add_spatial_edge(
            (previous[0], previous[1], self.layer),
            (positions[v][0], positions[v][1], self.layer),
        )
        for node, other in ((u, v), (v, u)):
            if node in self.memory:
                entry = self.memory[node]
                entry.pending.discard(other)
                if not entry.pending:
                    self._forget(node)
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
        if not grid.is_free(entry.home):
            return False
        target = relocation_cell(grid, entry.home, self.homes)
        if target is None:
            return False
        grid.occupy(entry.home, ("worldline", g_node))
        wire = route(grid, entry.home, target)
        if wire is None:
            grid.release(entry.home)
            return False
        grid.occupy(target, ("worldline", g_node))

        layer = self.layer
        old_coord = (entry.home[0], entry.home[1], layer)
        new_coord = (target[0], target[1], layer)
        self.ir.add_node(old_coord, ROLE_WORLDLINE, g_node)
        self.ir.add_temporal_edge(entry.last_coord, old_coord)
        self.retrievals += 1
        previous = entry.home
        for step in wire:
            grid.occupy(step, "ancilla")
            self.ir.add_node((step[0], step[1], layer), ROLE_ANCILLA, None)
            self.ir.add_spatial_edge(
                (previous[0], previous[1], layer), (step[0], step[1], layer)
            )
            previous = step
            self.ancilla_cells += 1
        # The wire's new end arrives spatially (no temporal predecessor) but
        # keeps the program node's identity: it is the same logical wire.
        self.ir.add_node(new_coord, ROLE_WORLDLINE, g_node)
        self.ir.add_spatial_edge((previous[0], previous[1], layer), new_coord)
        self._unhome(entry.home)
        entry.home = target
        self.homes[target] = 1
        self._restamp(entry, new_coord)
        placed_here[g_node] = target
        return True

    def _store_leftovers(self, placed_here: dict[int, Coord2D]) -> None:
        """Split still-pending edges into per-node memory entries and defer
        edges whose both endpoints are already mapped but unrouted."""
        for g_node in list(placed_here):
            if g_node not in self.memory:
                continue
            entry = self.memory[g_node]
            for nb in list(entry.pending):
                if nb in self.consumed:
                    self.deferred_edges.add(frozenset((g_node, nb)))

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
                coord = (entry.home[0], entry.home[1], self.layer)
                self.ir.add_node(coord, ROLE_WORLDLINE, entry.g_node)
                self.ir.add_temporal_edge(entry.last_coord, coord)
                self.retrievals += 1
                self._restamp(entry, coord)
                index += 1
        self.layers_since_refresh = 0
