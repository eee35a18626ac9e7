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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.errors import RenormalizationError
from repro.online.percolation import (
    MOVE_SLOTS,
    PercolatedLattice,
    frontier_bfs,
    grid_spans_from_usable,
    move_table_indptr,
    move_table_pops,
)
from repro.utils.gridgeom import Coord2D

#: Marker values for the orientation ownership grid.
_FREE, _VERTICAL, _HORIZONTAL, _DEAD = 0, 1, 2, 3

@dataclass
class RenormalizationResult:
    """Outcome of one 2D renormalization attempt."""

    success: bool
    target_size: int
    lattice_size: int  # achieved size (== target_size on success)
    node_sites: dict[tuple[int, int], Coord2D] = field(default_factory=dict)
    vertical_paths: list[list[Coord2D]] = field(default_factory=list)
    horizontal_paths: list[list[Coord2D]] = field(default_factory=list)
    visited_sites: int = 0  # BFS + DSU work, the Fig. 14 cost proxy

    @property
    def average_node_size(self) -> float:
        """``RSL_size / renormalized_lattice_size`` (paper's definition)."""
        if not self.vertical_paths:
            return float("nan")
        rsl = max(len(path) for path in self.vertical_paths)
        return rsl / max(1, self.lattice_size)


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
#: lower/left endpoint), free cells, cells a one-hop move may enter (free,
#: or perpendicular-owned on the goal row: the far-edge crossing), and
#: cells a two-hop move may cross (perpendicular-owned, off the goal row).
_ALONG, _ACROSS, _FREE_FRAME, _ENTER, _CROSS = range(5)


class _MoveGeometry(NamedTuple):
    """Shape-only half of a strip's move table, rows = cells, cols = moves.

    Gather indices address the flattened ``(5, n + 4, w + 4)`` frame stack
    of :meth:`_Carver.find_path` (two cells of ``False`` padding on
    every side); targets are flat strip-view cell indices.  ``indptr`` is
    the strip's fixed-stride CSR row pointer: four slots per cell, ``w``
    for the super-source ``n * w``, none for the sink ``n * w + 1``;
    ``sinks`` is the matching CSR ``indices`` with every slot at the sink,
    which a query copies and overwrites where it has edges.
    """

    bond: np.ndarray  # the cell -> cell + d bond
    enter: np.ndarray  # cell + d, one-hop enterable
    cross: np.ndarray  # cell + d, two-hop crossable
    onward_bond: np.ndarray  # the cell + d -> cell + 2d bond
    landing: np.ndarray  # cell + 2d, free
    one_hop: np.ndarray  # flat target cell + d (int32)
    two_hop: np.ndarray  # flat target cell + 2d (int32)
    lanes: np.ndarray  # near-edge start cells, lane order (int32)
    inward: np.ndarray  # the cells one row inward of the lanes (int32)
    indptr: np.ndarray  # fixed-stride CSR row pointer (int32)
    sinks: np.ndarray  # CSR indices, every slot at the sink (int32)
    one_hop_steps: frozenset  # flat index steps of the one-hop moves


@lru_cache(maxsize=4)
def _move_geometry(n: int, width: int, vertical: bool) -> _MoveGeometry:
    """The :class:`_MoveGeometry` of an ``(n, width)`` strip view.

    Depends only on the strip's shape and orientation (whose view-space
    move order is ``_VIEW_MOVES[vertical]``), so it is built once per shape
    and every query reduces to gathers from its own frames plus masked
    copies into a copy of ``sinks`` under the cached ``indptr``.  Four
    entries hold one ``renormalize`` call's strips (at most two widths, two
    orientations); on the bench workload a 16-entry cache saved under 0.3%
    of the builds and raised peak RSS by about 3 MB.
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
    return _MoveGeometry(
        bond=cell + bonds,
        enter=cell + step + _ENTER * frame_size,
        cross=cell + step + _CROSS * frame_size,
        onward_bond=cell + step + bonds,
        landing=cell + 2 * step + _FREE_FRAME * frame_size,
        one_hop=(flat + flat_step).astype(np.int32),
        two_hop=(flat + 2 * flat_step).astype(np.int32),
        lanes=np.arange(width, dtype=np.int32),
        inward=np.arange(width, 2 * width, dtype=np.int32),
        indptr=move_table_indptr(n * width, width),
        sinks=np.full(MOVE_SLOTS * n * width + width, n * width + 1, dtype=np.int32),
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

    def find_path(
        self, vertical: bool, index: int, count: int
    ) -> tuple[list[Coord2D], np.ndarray] | None:
        """Shortest spanning path for strip/band ``index`` (None if blocked).

        Returns the path as lattice coordinates and as flat lattice site
        indices (``row * size + col``).  A vertical path may step on
        horizontal-path sites only by crossing them straight through (and
        vice versa); it may never travel along them, which is the tangling
        the surround-removal of the paper prevents.  The paths, ownership
        and visited-site accounting are byte-identical to a per-cell deque
        BFS behind a per-strip union-find (the oracles in
        ``tests/oracles.py``).

        The strip is compiled into one CSR frontier graph whose per-node
        edge order encodes the scalar BFS's deterministic tie-breaks
        (enqueue order within a level is lexicographic in (parent pop
        order, move index)), then a single compiled breadth-first traversal
        (:func:`~repro.online.percolation.frontier_bfs`) replaces the
        per-cell Python loop.  A cell has at most one edge per move — a
        one-hop move onto a free site, a far-edge crossing ending on a
        perpendicular-owned site, or a two-hop straight-through crossing —
        so the graph is an ``(n * w, 4)`` move table, gathered at
        shape-only indices (:func:`_move_geometry`) from padded boolean
        frames of usable bonds and enterable, crossable and free cells.
        The layout is fixed-stride: every cell row has exactly four slots in
        move order, a virtual super-source ``n * w`` has one slot per lane in
        lane order, and each slot without an edge (a missing move, or a lane
        that is no start) points at the sink ``n * w + 1``, a node with no
        out-edges.  The row pointer is then shape-only too, and the CSR
        ``indices`` are a copy of the shape's all-sink template with masked
        copies of the one-hop, two-hop and start targets written over it
        (the three kinds never compete for a slot).  Popping the sink enqueues
        nothing, so the other nodes keep the scalar BFS's relative order and
        the visited-site counts subtract the sink's one pop where it came
        first.

        Per-call state keeps the per-query work to the strip itself: the
        usable-bond masks are sliced from the carver's views, and the frame
        stack of each strip width is allocated once and only its interior
        overwritten (the padding, the along-bond row of the goal row and
        the crossable goal row are never written, so they stay ``False``).
        A strip with no perpendicular-owned cell has no crossings, so its
        two-hop gathers are skipped.

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
            # Degenerate 1-wide lattice: the first perpendicular-owned lane
            # spans it outright (before any BFS pop); otherwise the first
            # free lane is popped once and immediately found to be the goal.
            # Either way the pre-check (any alive site) would have said yes.
            owned_lanes = np.flatnonzero(owner[0] == other_owner)
            if owned_lanes.size:
                return self._to_grid(owned_lanes[:1], vertical, low, width)
            free_lanes = np.flatnonzero(owner[0] == _FREE)
            if free_lanes.size:
                self.visited_sites += 1
                return self._to_grid(free_lanes[:1], vertical, low, width)
            return None

        usable_along = along[:, low:high]
        usable_across = across[:, low : high - 1]
        geometry = _move_geometry(n, width, vertical)
        frames = self._frames.get(width)
        if frames is None:
            frames = self._frames[width] = np.zeros((5, n + 4, width + 4), dtype=bool)
        frames[_ALONG, 2 : n + 1, 2:-2] = usable_along
        frames[_ACROSS, 2:-2, 2 : width + 1] = usable_across
        free = owner == _FREE
        frames[_FREE_FRAME, 2:-2, 2:-2] = free
        frames[_ENTER, 2:-2, 2:-2] = free
        other = owner == other_owner
        crossings = bool(other.any())
        if crossings:
            frames[_ENTER, n + 1, 2:-2] |= other[-1]
            frames[_CROSS, 2 : n + 1, 2:-2] = other[:-1]
        flat_frames = frames.ravel()
        bonded = flat_frames[geometry.bond] & free.reshape(-1, 1)
        one = bonded & flat_frames[geometry.enter]
        total = n * width

        # The CSR indices start with every slot at the sink; the move table
        # is their first ``4 * n * w`` slots and the super-source's start
        # row the last ``w``.  Start cells on the near edge, one slot per
        # lane: free cells start normally; perpendicular-owned cells are
        # entered one row inward (the owned cell rejoins the path as a
        # reconstruction prefix); other lanes stay at the sink.
        indices = geometry.sinks.copy()
        moves = indices[:-width].reshape(total, MOVE_SLOTS)
        start = indices[-width:]
        if crossings:
            two = (
                bonded
                & flat_frames[geometry.cross]
                & flat_frames[geometry.onward_bond]
                & flat_frames[geometry.landing]
            )
            np.copyto(moves, geometry.two_hop, where=two)
            np.copyto(start, geometry.inward, where=other[0] & free[1] & usable_along[0])
        np.copyto(moves, geometry.one_hop, where=one)
        np.copyto(start, geometry.lanes, where=free[0])

        pop_order, parents = frontier_bfs(geometry.indptr, indices, total)
        is_goal = (pop_order >= total - width) & (pop_order < total)
        found = int(is_goal.argmax())
        if not is_goal[found]:
            # Every enqueued cell was popped without reaching the far edge.
            # Only a spanning relaxed graph charges those pops; otherwise
            # the pre-check alone would have answered.
            if grid_spans_from_usable(sites[:, low:high], usable_across, usable_along):
                self.visited_sites += move_table_pops(pop_order, parents, len(pop_order))
            return None
        # Cell pops up to (and including) the goal are the scalar BFS's
        # visited count.
        self.visited_sites += move_table_pops(pop_order, parents, found + 1)

        # One walk from the goal back to the super-source.  A step that is
        # no one-hop move is a two-hop edge, two cells along one view axis;
        # the skipped crossing site is its midpoint.
        one_hop_steps = geometry.one_hop_steps
        node = int(pop_order[found])
        path = [node]
        previous = int(parents[node])
        while previous != total:
            if node - previous not in one_hop_steps:
                path.append((node + previous) // 2)
            path.append(previous)
            node = previous
            previous = int(parents[node])
        if node >= width:
            # Entered one row inward across a perpendicular-owned start cell.
            path.append(node - width)
        path.reverse()
        return self._to_grid(np.array(path), vertical, low, width)

    def _to_grid(
        self, flat: np.ndarray, vertical: bool, low: int, width: int
    ) -> tuple[list[Coord2D], np.ndarray]:
        """Strip-view flat indices -> lattice coordinates and site indices.

        The coordinates are python-int ``(row, col)`` tuples; the site
        indices are the flat lattice indices ``row * size + col`` that
        :meth:`claim` and :func:`_intersections` index with.
        """
        spans = flat // width
        lanes = flat - spans * width + low
        rows, cols = (spans, lanes) if vertical else (lanes, spans)
        return list(zip(rows.tolist(), cols.tolist())), rows * self.size + cols

    def claim(self, sites: np.ndarray, vertical: bool) -> None:
        """Mark a found path's sites with their orientation ownership.

        ``sites`` are the path's flat lattice indices, recorded in
        :attr:`claimed`.  Crossing sites (already owned by the perpendicular
        orientation) keep their original owner — they are exactly the
        renormalized nodes.
        """
        marker = _VERTICAL if vertical else _HORIZONTAL
        owner = self.owner.reshape(-1)
        current = owner[sites]
        owner[sites] = np.where(current == _FREE, marker, current)
        self.claimed[vertical].append(sites)


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
    vertical_paths: list[list[Coord2D]] = []
    horizontal_paths: list[list[Coord2D]] = []

    for index in range(target_size):
        for vertical in (True, False):
            if work_budget is not None and carver.visited_sites > work_budget:
                achieved = min(len(vertical_paths), len(horizontal_paths))
                return RenormalizationResult(
                    success=False,
                    target_size=target_size,
                    lattice_size=achieved,
                    vertical_paths=vertical_paths,
                    horizontal_paths=horizontal_paths,
                    visited_sites=carver.visited_sites,
                )
            found = carver.find_path(vertical, index, target_size)
            if found is None:
                achieved = min(len(vertical_paths), len(horizontal_paths))
                return RenormalizationResult(
                    success=False,
                    target_size=target_size,
                    lattice_size=achieved,
                    vertical_paths=vertical_paths,
                    horizontal_paths=horizontal_paths,
                    visited_sites=carver.visited_sites,
                )
            path, sites = found
            carver.claim(sites, vertical)
            (vertical_paths if vertical else horizontal_paths).append(path)

    node_sites = _intersections(
        vertical_paths,
        horizontal_paths,
        (lattice.size, carver.claimed[True], carver.claimed[False]),
    )
    if len(node_sites) < target_size * target_size:
        achieved = int(len(node_sites) ** 0.5)
        return RenormalizationResult(
            success=False,
            target_size=target_size,
            lattice_size=achieved,
            node_sites=node_sites,
            vertical_paths=vertical_paths,
            horizontal_paths=horizontal_paths,
            visited_sites=carver.visited_sites,
        )
    return RenormalizationResult(
        success=True,
        target_size=target_size,
        lattice_size=target_size,
        node_sites=node_sites,
        vertical_paths=vertical_paths,
        horizontal_paths=horizontal_paths,
        visited_sites=carver.visited_sites,
    )


def _intersections(
    vertical_paths: list[list[Coord2D]],
    horizontal_paths: list[list[Coord2D]],
    flat: tuple[int, list[np.ndarray], list[np.ndarray]] | None = None,
) -> dict[tuple[int, int], Coord2D]:
    """First shared site of each (vertical, horizontal) path pair.

    ``flat`` is ``(size, vertical_sites, horizontal_sites)``: the same
    paths as flat site indices ``row * size + col``, which the carver
    records as it claims them; without it they are derived from the
    coordinates.  One ``site -> v_index`` grid over all vertical paths
    (the lowest index wins a shared site) is gathered at each horizontal
    path's sites; only the handful of hits is then walked in Python, in
    path order, keeping each ``v_index``'s first hit.  "First" means first
    along the horizontal path, and the node dict keeps ascending
    ``v_index`` insertion order per ``h_index``.
    """
    if not vertical_paths or not horizontal_paths:
        return {}
    if flat is None:
        size = 1 + max(
            max(coord) for path in vertical_paths + horizontal_paths for coord in path
        )
        flat = (
            size,
            [_flat_sites(path, size) for path in vertical_paths],
            [_flat_sites(path, size) for path in horizontal_paths],
        )
    size, vertical_sites, horizontal_sites = flat
    site_to_v = np.full(size * size, -1, dtype=np.int64)
    for v_index in range(len(vertical_sites) - 1, -1, -1):
        site_to_v[vertical_sites[v_index]] = v_index
    nodes: dict[tuple[int, int], Coord2D] = {}
    for h_index, (h_path, sites) in enumerate(zip(horizontal_paths, horizontal_sites)):
        hits = site_to_v[sites]
        positions = np.flatnonzero(hits >= 0)
        found: dict[int, int] = {}
        for v_index, position in zip(hits[positions].tolist(), positions.tolist()):
            found.setdefault(v_index, position)
        for v_index in sorted(found):
            nodes[(v_index, h_index)] = h_path[found[v_index]]
    return nodes


def _flat_sites(path: list[Coord2D], size: int) -> np.ndarray:
    """A coordinate path as flat site indices ``row * size + col``."""
    rows, cols = np.array(path).T
    return rows * size + cols
