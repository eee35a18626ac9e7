"""2D renormalization: carving a regular coarse lattice out of a random one.

Section 5.1: on each (merged) RSL the largest connected component of the
percolated lattice is reshaped into a coarse-grained ``k x k`` square lattice
by finding ``k`` vertical top-bottom paths (searched left to right) and ``k``
horizontal left-right paths (searched bottom to top), alternating the two
orientations.  Path intersections become the renormalized (logical) nodes;
every other qubit is measured out in Z.

Two mechanics from the paper:

* **connectivity check** — a per-strip spanning check answers "is there
  any path at all?" on the relaxed graph that ignores crossing rules, and
  the Fig. 14 cost proxy charges it the full strip area.  The check is
  :func:`~repro.online.percolation.grid_spans_from_usable`; it runs only
  after a *failed* path search (a found path already proves the strip
  spans), where it decides whether the search's pops are charged — the
  accounting of a check-first scalar BFS, with one traversal per query in
  the common case.  The scalar formulations (a deque BFS after a per-strip
  union-find) are the parity oracles in ``tests/oracles.py``;
* **tangling prevention** — distinct same-orientation paths must stay
  disjoint, and a path may touch a perpendicular path only by crossing it
  straight through (the crossing site becoming a renormalized node).  The
  artifact implements this by deleting each path's surrounding qubits; we
  get the same guarantee structurally, by confining each vertical path to
  its own column strip (and each horizontal path to its own row band) and by
  restricting perpendicular contact to straight crossings.  The "Design
  substitutions" section of ARCHITECTURE.md records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from repro.errors import RenormalizationError
from repro.online.percolation import (
    MOVE_SLOTS,
    PercolatedLattice,
    frontier_bfs,
    grid_spans_from_usable,
    move_table_indptr,
)
from repro.utils.gridgeom import Coord2D

#: Marker values for the orientation ownership grid.
_FREE, _VERTICAL, _HORIZONTAL, _DEAD = 0, 1, 2, 3


@dataclass(eq=False)
class RenormalizationResult:
    """Outcome of one 2D renormalization attempt.

    The carved paths are stored as flat lattice site indices ``row * side
    + col``, the form the search produces; the callers on the compile path
    read only the flags and counts.  :attr:`nodes` (the node grid, in flat
    sites) and the coordinate views :attr:`vertical_paths`,
    :attr:`horizontal_paths` and :attr:`node_sites` (python-int ``(row,
    col)`` tuples) are built from the paths on first access.
    """

    success: bool  # all ``2 * target_size`` paths were found
    target_size: int
    lattice_size: int  # the smaller path count (== target_size on success)
    visited_sites: int = 0  # BFS + DSU work, the Fig. 14 cost proxy
    side: int = 0  # side of the lattice the flat site indices address
    vertical_sites: list[np.ndarray] = field(default_factory=list)
    horizontal_sites: list[np.ndarray] = field(default_factory=list)

    @cached_property
    def nodes(self) -> dict[tuple[int, int], int]:
        """``(v_index, h_index) -> flat site`` of each path crossing, in
        ascending ``h_index``, then ``v_index``, order; empty unless the
        carve succeeded (every vertical path then crosses every horizontal
        one, so the grid is complete)."""
        if not self.success:
            return {}
        return _intersections(self.side, self.vertical_sites, self.horizontal_sites)

    @cached_property
    def vertical_paths(self) -> list[list[Coord2D]]:
        return _coordinates(self.vertical_sites, self.side)

    @cached_property
    def horizontal_paths(self) -> list[list[Coord2D]]:
        return _coordinates(self.horizontal_sites, self.side)

    @cached_property
    def node_sites(self) -> dict[tuple[int, int], Coord2D]:
        if not self.nodes:
            return {}
        sites = np.fromiter(self.nodes.values(), dtype=np.int64, count=len(self.nodes))
        return dict(zip(self.nodes, _coordinates([sites], self.side)[0]))


def _coordinates(paths: list[np.ndarray], side: int) -> list[list[Coord2D]]:
    """Flat site index arrays as lists of python-int ``(row, col)`` tuples."""
    if not paths:
        return []
    rows, cols = np.divmod(np.concatenate(paths), side)
    coords = list(zip(rows.tolist(), cols.tolist()))
    bounds = np.cumsum([0, *(len(path) for path in paths)]).tolist()
    return [coords[low:high] for low, high in zip(bounds, bounds[1:])]


#: Grid move order ((-1,0),(1,0),(0,-1),(0,1)), rewritten as (d_span, d_lane)
#: steps in the strip view (axis 0 along the spanning direction, so row bands
#: are transposed and the view-space order swaps).  This order is the
#: search's tie-break, which keeps it byte-identical to the scalar deque BFS
#: oracle and the recorded paths stable.
_VIEW_MOVES = {
    True: ((-1, 0), (1, 0), (0, -1), (0, 1)),
    False: ((0, -1), (0, 1), (-1, 0), (1, 0)),
}


#: Layout of the stacked boolean frames a vectorized path query gathers
#: from: usable bonds along the span and across lanes (each stored at its
#: lower/left endpoint), free cells, the goal-row cells a one-hop move may
#: enter (free, or perpendicular-owned: the far-edge crossing; only the
#: goal row of this frame is written or read), and cells a two-hop move
#: may cross (perpendicular-owned, off the goal row).
_ALONG, _ACROSS, _FREE_FRAME, _ENTER, _CROSS = range(5)


class _MoveGeometry(NamedTuple):
    """Shape-only half of a strip's move table, one entry per CSR slot.

    ``gather`` addresses the flattened ``(5, n + 4, w + 4)`` frame stack of
    :meth:`_Carver.find_path` (two cells of ``False`` padding on every
    side); its planes, in order, are the cell's bond to ``cell + d``,
    ``cell + d`` one-hop enterable (read from the free frame off the goal
    row, from the enterable frame on it), ``cell + d`` two-hop crossable, the
    onward bond to ``cell + 2d`` and ``cell + 2d`` free, so a strip with
    no crossing gathers only the first two.  ``indptr`` is the strip's
    fixed-stride CSR row pointer: four slots per cell, ``w`` for the
    super-source ``n * w``, none for the sink ``n * w + 1``.  The
    super-source's slots are the moves of a virtual row ``-1``, one step
    down per lane: a lane starts one-hop on a free near-edge cell, or
    two-hop across a perpendicular-owned one onto the free cell one row
    inward.  Their bond plane reads the padding cell ``(0, 0)`` of the
    along-bond frame, which no cell's move reads and ``find_path`` sets
    ``True``.  The one-hop and two-hop offsets are the flat strip-view
    targets ``cell + d`` and ``cell + 2d`` less the sink, so a query's CSR
    ``indices`` are the sink plus the offsets of the moves it keeps.
    """

    gather: np.ndarray  # (5, 4 * n * w + w) frame-stack indices
    one_hop: np.ndarray  # flat target cell + d, less the sink (int32)
    two_hop: np.ndarray  # flat target cell + 2d, less the sink (int32)
    indptr: np.ndarray  # fixed-stride CSR row pointer (int32)
    sites: np.ndarray  # flat lattice site of each cell, strip at offset 0
    one_hop_steps: frozenset  # flat index steps of the one-hop moves


@lru_cache(maxsize=4)
def _move_geometry(n: int, width: int, vertical: bool) -> _MoveGeometry:
    """The :class:`_MoveGeometry` of an ``(n, width)`` strip view.

    Depends only on the strip's shape and orientation (whose view-space
    move order is ``_VIEW_MOVES[vertical]``), so it is built once per shape
    and every query reduces to one gather from its own frames plus the
    offsets of the moves it keeps.  Four entries hold one ``renormalize``
    call's strips (at most two widths, two orientations); on the bench
    workload a 16-entry cache saved under 0.3% of the builds and raised
    peak RSS by about 3 MB.
    """
    padded = width + 4
    frame_size = (n + 4) * padded
    span = np.arange(n).repeat(width).reshape(-1, 1)
    lane = np.tile(np.arange(width), n).reshape(-1, 1)
    cell = (span + 2) * padded + lane + 2
    d_span, d_lane = np.array(_VIEW_MOVES[vertical]).T
    step = d_span * padded + d_lane
    # The bond between x and x + d is stored at x + min(d, 0).
    back = np.minimum(d_span, 0) * padded + np.minimum(d_lane, 0)
    bonds = np.where(d_span != 0, _ALONG, _ACROSS) * frame_size + back
    flat = span * width + lane
    flat_step = d_span * width + d_lane
    sink = n * width + 1
    sites = span * n + lane if vertical else lane * n + span
    # Each plane is written in place: the stack is the geometry's largest
    # array, and a stack of temporaries would double it at build time.
    slots = MOVE_SLOTS * n * width
    gather = np.empty((5, slots + width), dtype=np.intp)
    moves = gather[:, :slots].reshape(5, n * width, MOVE_SLOTS)
    np.add(cell, bonds, out=moves[0])
    enter = np.where(span + d_span == n - 1, _ENTER, _FREE_FRAME)
    np.add(cell, step + enter * frame_size, out=moves[1])
    np.add(cell, step + _CROSS * frame_size, out=moves[2])
    np.add(cell, step + bonds, out=moves[3])
    np.add(cell, 2 * step + _FREE_FRAME * frame_size, out=moves[4])
    # The start row's down moves from row -1: the always-true bond, the
    # near-edge cell free or crossable, its along bond, the next cell free
    # (``n >= 2``, so row 0 is never the goal row).
    near = cell[:width, 0]
    gather[0, slots:] = _ALONG * frame_size
    gather[1, slots:] = near + _FREE_FRAME * frame_size
    gather[2, slots:] = near + _CROSS * frame_size
    gather[3, slots:] = near + _ALONG * frame_size
    gather[4, slots:] = near + padded + _FREE_FRAME * frame_size
    lanes = np.arange(width)
    return _MoveGeometry(
        gather=gather,
        one_hop=(np.append(flat + flat_step, lanes) - sink).astype(np.int32),
        two_hop=(np.append(flat + 2 * flat_step, lanes + width) - sink).astype(np.int32),
        indptr=move_table_indptr(n * width, width),
        sites=sites.ravel(),
        one_hop_steps=frozenset((1, -1, width, -width)),
    )


class _Carver:
    """Stateful path search over one percolated lattice."""

    def __init__(self, lattice: PercolatedLattice) -> None:
        self.lattice = lattice
        self.size = lattice.size
        self.owner = np.full((self.size, self.size), _FREE, dtype=np.uint8)
        self.owner[~lattice.sites] = _DEAD
        self.visited_sites = 0
        #: Flat lattice site indices of every claimed path, per orientation
        #: (``True`` = vertical), in claim order.
        self.claimed: dict[bool, list[np.ndarray]] = {True: [], False: []}
        # Per-call strip views, axis 0 along the spanning direction:
        # ``(alive, usable across, usable along, owner)``, each sliced
        # ``[:, low:high]`` (across: ``[:, low:high - 1]``) per query.
        # The usable-bond masks are built once; row bands transpose.
        usable_h, usable_v = lattice.usable_bonds()
        self._views = {
            True: (lattice.sites, usable_h, usable_v, self.owner),
            False: (lattice.sites.T, usable_v.T, usable_h.T, self.owner.T),
        }
        #: Padded ``(5, n + 4, w + 4)`` frame stacks, one per strip width.
        self._frames: dict[int, np.ndarray] = {}

    def _strip_range(self, index: int, count: int) -> tuple[int, int]:
        """Half-open coordinate range of strip/band ``index`` of ``count``."""
        low = (index * self.size) // count
        high = ((index + 1) * self.size) // count
        return low, high

    # -- path search -------------------------------------------------------

    def find_path(self, vertical: bool, index: int, count: int) -> np.ndarray | None:
        """Shortest spanning path for strip/band ``index`` (None if blocked).

        Returns the path's flat lattice site indices (``row * size +
        col``), from the near edge to the far edge.  A vertical path may
        step on horizontal-path sites only by crossing them straight
        through (and vice versa); it may never travel along them, which is
        the tangling the surround-removal of the paper prevents.  The
        paths, ownership and visited-site accounting are byte-identical to
        a per-cell deque BFS behind a per-strip union-find (the oracles in
        ``tests/oracles.py``).

        The strip is compiled into one CSR frontier graph whose per-node
        edge order encodes the scalar BFS's deterministic tie-breaks
        (enqueue order within a level is lexicographic in (parent pop
        order, move index)), then a single compiled breadth-first traversal
        (:func:`~repro.online.percolation.frontier_bfs`) replaces the
        per-cell Python loop.  A cell has at most one edge per move — a
        one-hop move onto a free site, a far-edge crossing ending on a
        perpendicular-owned site, or a two-hop straight-through crossing —
        so the graph is an ``(n * w, 4)`` move table, gathered in one go at
        shape-only indices (:func:`_move_geometry`) from padded boolean
        frames of usable bonds and enterable, crossable and free cells.
        The layout is fixed-stride: every cell row has exactly four slots in
        move order, a virtual super-source ``n * w`` has one slot per lane in
        lane order, and each slot without an edge (a missing move, or a lane
        that is no start) points at the sink ``n * w + 1``, a node with no
        out-edges.  The super-source's slots are gathered with the cells'
        as the down moves of a virtual row ``-1``, so one gather builds
        every slot.  The row pointer is then shape-only too, and the CSR
        ``indices`` are the sink plus the one-hop or two-hop offset of each
        kept move (the two kinds never compete for a slot).  Popping the
        sink enqueues nothing, so the other nodes keep the scalar BFS's
        relative order and the visited-site counts subtract the sink's one
        pop where it came first.

        Only free cells are popped before the first goal: a cell that is
        not free is entered only on the goal row, and a pop there ends the
        search, so the move rows need no mask of their own cell.

        Per-call state keeps the per-query work to the strip itself: the
        usable-bond masks are sliced from the carver's views, and the frame
        stack of each strip width is allocated once and only its interior
        overwritten (the padding, the along-bond row of the goal row and
        the crossable goal row are never written, so they stay ``False``;
        of the enterable frame only the goal row is written, since one-hop
        moves onto any other row read the free frame).  The frames are
        read off the claim state: the strip holds no cell of its own
        orientation yet, so a goal-row cell is enterable exactly when it is
        alive, and it holds a perpendicular-owned cell exactly when a
        perpendicular path is claimed (each spans every strip).  A strip
        with no crossings gathers only the bond and enterable planes.

        The search runs *before* the strip pre-check: any path it finds
        also spans the relaxed graph, so the pre-check would have said yes.
        Only a failed search runs the pre-check, which then decides whether
        the search's pops are charged — the visited-site accounting of a
        check-first scalar BFS, with one traversal per query instead of two
        in the common case.
        """
        low, high = self._strip_range(index, count)
        if high - low < 1:
            raise RenormalizationError("strip is empty; target size too large")
        n = self.size
        width = high - low
        sites, across, along, owner = self._views[vertical]
        owner = owner[:, low:high]
        # The cost proxy charges the full strip area up front: the work of
        # the per-strip connectivity check.
        self.visited_sites += n * width
        other_owner = _HORIZONTAL if vertical else _VERTICAL

        if n == 1:
            # Degenerate 1-wide lattice (so ``low`` is 0 and a lane is its
            # own site): the first perpendicular-owned lane spans it
            # outright (before any BFS pop); otherwise the first free lane
            # is popped once and immediately found to be the goal.  Either
            # way the pre-check (any alive site) would have said yes.
            owned_lanes = np.flatnonzero(owner[0] == other_owner)
            if owned_lanes.size:
                return owned_lanes[:1]
            free_lanes = np.flatnonzero(owner[0] == _FREE)
            if free_lanes.size:
                self.visited_sites += 1
                return free_lanes[:1]
            return None

        usable_along = along[:, low:high]
        usable_across = across[:, low : high - 1]
        geometry = _move_geometry(n, width, vertical)
        frames = self._frames.get(width)
        if frames is None:
            frames = self._frames[width] = np.zeros((5, n + 4, width + 4), dtype=bool)
            frames[_ALONG, 0, 0] = True  # the start row's bond
        frames[_ALONG, 2 : n + 1, 2:-2] = usable_along
        frames[_ACROSS, 2:-2, 2 : width + 1] = usable_across
        np.equal(owner, _FREE, out=frames[_FREE_FRAME, 2:-2, 2:-2])
        # The strip holds no cell of its own orientation (its path is not
        # claimed yet), so a goal-row cell is enterable, free or
        # perpendicular-owned, exactly when it is alive.
        np.not_equal(owner[-1], _DEAD, out=frames[_ENTER, n + 1, 2:-2])
        # A claimed perpendicular path spans every strip and owns its cells
        # in this one, so the strip holds a perpendicular-owned cell
        # exactly when one is claimed.
        crossings = bool(self.claimed[not vertical])
        if crossings:
            np.equal(owner[:-1], other_owner, out=frames[_CROSS, 2 : n + 1, 2:-2])
        total = n * width
        sink = total + 1

        # The CSR indices: the move table is their first ``4 * n * w``
        # slots and the super-source's start row the last ``w``.  A lane
        # starts on a free near-edge cell, or one row inward across a
        # perpendicular-owned one (the owned cell rejoins the path as a
        # reconstruction prefix), or points at the sink.
        indices = np.empty(MOVE_SLOTS * total + width, dtype=np.int32)
        flat_frames = frames.ravel()
        if crossings:
            bond, enter, cross, onward_bond, landing = flat_frames.take(geometry.gather)
            np.multiply(bond & enter, geometry.one_hop, out=indices)
            indices += (bond & cross & onward_bond & landing) * geometry.two_hop
        else:
            bond, enter = flat_frames.take(geometry.gather[:2])
            np.multiply(bond & enter, geometry.one_hop, out=indices)
        indices += sink

        pop_order, parents = frontier_bfs(geometry.indptr, indices, total)
        # The super-source pops first; after it, the only nodes numbered
        # ``total - width`` or more are the sink (at most once) and the
        # goal-row cells.  ``argmax`` finds the first such pop, 0 if none.
        marks = pop_order >= total - width
        marks[0] = False
        found = int(marks.argmax())
        sink_first = pop_order.item(found) == sink
        if sink_first:
            marks[found] = False
            found = int(marks.argmax())
        if not found:
            # Every enqueued cell was popped without reaching the far edge.
            # Only a spanning relaxed graph charges those pops; otherwise
            # the pre-check alone would have answered.
            if grid_spans_from_usable(sites[:, low:high], usable_across, usable_along):
                self.visited_sites += len(pop_order) - 1 - sink_first
            return None
        # Cell pops up to (and including) the goal are the scalar BFS's
        # visited count: neither the super-source nor an earlier sink.
        self.visited_sites += found - sink_first

        # One walk from the goal back to the super-source, reading the
        # predecessors through a memoryview (a python int per step, without
        # ``ndarray.item``'s call overhead).  A step that is no one-hop move
        # is a two-hop edge, two cells along one view axis; the skipped
        # crossing site is its midpoint.
        one_hop_steps = geometry.one_hop_steps
        parent_of = memoryview(parents).__getitem__
        node = pop_order.item(found)
        path = [node]
        previous = parent_of(node)
        while previous != total:
            if node - previous not in one_hop_steps:
                path.append((node + previous) // 2)
            path.append(previous)
            node = previous
            previous = parent_of(node)
        if node >= width:
            # Entered one row inward across a perpendicular-owned start cell.
            path.append(node - width)
        # The strip's first lane shifts the shape's sites by ``low``
        # columns (a column strip) or ``low`` rows (a row band).
        steps = np.array(path[::-1], dtype=np.intp)
        return geometry.sites[steps] + (low if vertical else low * n)

    def claim(self, sites: np.ndarray, vertical: bool) -> None:
        """Mark a found path's sites with their orientation ownership.

        ``sites`` are the path's flat lattice indices, recorded in
        :attr:`claimed`.  Crossing sites (already owned by the perpendicular
        orientation) keep their original owner — they are exactly the
        renormalized nodes.
        """
        owner = self.owner.reshape(-1)
        owner[sites[owner[sites] == _FREE]] = _VERTICAL if vertical else _HORIZONTAL
        self.claimed[vertical].append(sites)

    def result(self, target_size: int) -> RenormalizationResult:
        """The carve so far as a result.

        A carve achieves the smaller of its two path counts and succeeds
        with all ``2 * target_size`` paths: each vertical path spans every
        row band, so it crosses every horizontal path and the node grid is
        complete (``tests/oracles.py::check_renormalization`` certifies it).
        """
        vertical, horizontal = self.claimed[True], self.claimed[False]
        achieved = min(len(vertical), len(horizontal))
        return RenormalizationResult(
            success=achieved == target_size,
            target_size=target_size,
            lattice_size=achieved,
            visited_sites=self.visited_sites,
            side=self.size,
            vertical_sites=vertical,
            horizontal_sites=horizontal,
        )


def renormalize(
    lattice: PercolatedLattice,
    target_size: int,
    work_budget: int | None = None,
) -> RenormalizationResult:
    """Reshape ``lattice`` into a ``target_size x target_size`` coarse lattice.

    Searches vertical and horizontal spanning paths alternately (the paper's
    effective order) and reports success only if all ``2 * target_size``
    paths exist — in which case every pair crosses and the intersection grid
    is complete.

    ``work_budget`` caps the visited-site count, modelling the photon
    lifetime limit on real-time processing (Fig. 13(c)'s time-restricted
    non-modular baseline): when exceeded, the partial result so far is
    returned as a failure.
    """
    if target_size < 1:
        raise RenormalizationError(f"target size must be >= 1, got {target_size}")
    if target_size > lattice.size:
        raise RenormalizationError(
            f"target {target_size} exceeds lattice size {lattice.size}"
        )
    carver = _Carver(lattice)
    for index in range(target_size):
        for vertical in (True, False):
            if work_budget is not None and carver.visited_sites > work_budget:
                return carver.result(target_size)
            sites = carver.find_path(vertical, index, target_size)
            if sites is None:
                return carver.result(target_size)
            carver.claim(sites, vertical)
    return carver.result(target_size)


def _intersections(
    size: int, vertical_sites: list[np.ndarray], horizontal_sites: list[np.ndarray]
) -> dict[tuple[int, int], int]:
    """First shared site of each (vertical, horizontal) path pair.

    Paths are flat site indices ``row * size + col``.  One ``site ->
    v_index`` grid over all vertical paths (the lowest index wins a shared
    site) is gathered at every horizontal path's sites at once; only the
    handful of hits is then walked in Python, in path order, keeping each
    ``(v_index, h_index)``'s first hit.  "First" means first along the
    horizontal path, and the node dict keeps ascending ``v_index``
    insertion order per ``h_index``.  The values are python ints.
    """
    site_to_v = np.full(size * size, -1, dtype=np.int64)
    for v_index in range(len(vertical_sites) - 1, -1, -1):
        site_to_v[vertical_sites[v_index]] = v_index
    crossing = np.concatenate(horizontal_sites)
    hits = site_to_v[crossing]
    positions = np.flatnonzero(hits >= 0)
    ends = np.cumsum([len(sites) for sites in horizontal_sites])
    h_indices = np.searchsorted(ends, positions, side="right")
    found: dict[tuple[int, int], int] = {}
    for h_index, v_index, site in zip(
        h_indices.tolist(), hits[positions].tolist(), crossing[positions].tolist()
    ):
        found.setdefault((h_index, v_index), site)
    return {(v_index, h_index): found[h_index, v_index] for h_index, v_index in sorted(found)}
