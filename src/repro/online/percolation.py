"""Percolated lattices: the random physical graph state on one RSL.

After the semi-static fusion strategy runs, each (merged) RSL is a random
subgraph of an ``N x N`` square lattice: sites are merged resource states
(dead if their root was lost during merging) and bonds are the heralded
outcomes of leaf-leaf fusions.  When the fusion success probability exceeds
the square-lattice bond percolation threshold of 1/2 [40], the lattice has a
giant long-range-connected component — the raw material the renormalization
pass carves into a regular grid (Section 5.1).

:meth:`PercolatedLattice.components` runs a vectorized numpy label
propagation (:func:`label_grid_components`) — the primitive behind the
spanning sweeps and cluster-fraction estimates (:func:`spanning_probability`,
the percolation example, the threshold tests), which sample thousands of
lattices per curve; the compiler itself never calls it.  The
renormalization pass's path search and per-strip spanning check run on
:func:`frontier_bfs`, the compiled breadth-first kernel behind scipy's
``breadth_first_order``, called without its graph wrapper.  The original
per-bond union-find, the pure-python BFS twin and the scalar strip checks
are the parity oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph._traversal import _breadth_first_directed

from repro import obs
from repro.errors import RenormalizationError
from repro.utils.gridgeom import Coord2D
from repro.utils.rng import ensure_rng

#: Label value marking dead sites in a component label grid.
DEAD_LABEL = -1

#: Null-predecessor marker in a :func:`frontier_bfs` predecessor array
#: (scipy.sparse.csgraph's sentinel).
NO_PREDECESSOR = -9999

#: Edge slots per cell in a fixed-stride move table (see
#: :func:`move_table_indptr`): the four grid moves.
MOVE_SLOTS = 4


def frontier_adjacency(
    sources: np.ndarray, targets: np.ndarray, node_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, indices)`` from directed edge lists.

    The stable sort keeps each node's out-edges in the order they appear in
    ``sources``/``targets`` — the tie-break contract of :func:`frontier_bfs`.
    The path search and the corridor joins no longer come through here
    (they build fixed-stride move tables, :func:`move_table_indptr`); the
    strip pre-check's spanning BFS (:func:`grid_spans_from_usable`) does.
    """
    order = np.argsort(sources, kind="stable")
    indices = targets[order].astype(np.int32, copy=False)
    indptr = np.zeros(node_count + 1, dtype=np.int32)
    np.cumsum(np.bincount(sources, minlength=node_count), out=indptr[1:])
    return indptr, indices


def move_table_indptr(cells: int, start_count: int) -> np.ndarray:
    """``indptr`` of a fixed-stride move table with a super-source and a sink.

    Cells ``0 .. cells - 1`` own :data:`MOVE_SLOTS` edge slots each, in
    move order; node ``cells`` is the virtual super-source with
    ``start_count`` slots; node ``cells + 1`` is the sink, the target of
    every slot that has no edge, and has no out-edges itself.  The
    matching ``indices`` are one ``concatenate`` of the raveled
    ``(cells, MOVE_SLOTS)`` move table and the start row.
    """
    indptr = np.arange(0, MOVE_SLOTS * (cells + 2) + 1, MOVE_SLOTS, dtype=np.int32)
    indptr[cells + 1 :] = MOVE_SLOTS * cells + start_count
    return indptr


def move_table_pops(order: np.ndarray, predecessors: np.ndarray, end: int) -> int:
    """Cell pops among ``order[:end]`` of a traversal of a fixed-stride table.

    ``order`` and ``predecessors`` come from :func:`frontier_bfs` on a
    :func:`move_table_indptr` graph, started at its super-source (pop 0).
    The sink, the last node, is reached exactly when its predecessor is
    set, and it enqueues nothing, so the cells keep their relative pop
    order: the count is ``end - 1``, less one if the sink popped in range.
    """
    sink = predecessors.shape[0] - 1
    sink_popped = predecessors[sink] != NO_PREDECESSOR and bool(
        (order[:end] == sink).any()
    )
    return end - 1 - int(sink_popped)


def frontier_bfs(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first wavefront over a CSR graph: pop order + predecessors.

    Pops are FIFO and each popped node's out-edges are walked in CSR
    storage order, the first discoverer of a node becoming its predecessor
    — exactly the semantics of a scalar ``deque`` BFS, which is what lets
    the vectorized renormalization path search reproduce the scalar
    oracle's paths and visited-site counts byte-for-byte.  The property
    suite pins the tie-breaks against a pure-python twin.

    Runs scipy's compiled kernel ``_breadth_first_directed`` (the loop
    inside ``breadth_first_order``) on the caller's arrays directly: every
    graph here is built in-process, so the public entry's ``csr_array``
    and ``validate_graph`` round trip is pure overhead.  ``indptr`` and
    ``indices`` go in unconverted, as the C-contiguous ``int32`` arrays
    every caller builds, so the kernel's typed signature is the only check:
    a strided array, or an ``int64`` array paired with an ``int32`` one,
    raises ``ValueError`` rather than being traversed.  The output buffers
    are allocated per call, so concurrent calls (``repro serve`` compiles
    on a thread pool) share nothing.

    A fixed-stride move table (:func:`move_table_indptr`) routes every
    missing edge to its sink node, so the sink appears in the pop order
    (and in the ``online.bfs_nodes`` histogram) whenever some slot
    lacked an edge; callers subtract it from their pop counts.
    """
    node_count = indptr.shape[0] - 1
    order = np.empty(node_count, dtype=np.int32)
    predecessors = np.full(node_count, NO_PREDECESSOR, dtype=np.int32)
    length = _breadth_first_directed(source, indices, indptr, order, predecessors)
    if obs.active() is not None:
        # Out-of-band wavefront-size telemetry; the ``active`` gate keeps
        # the untraced hot path to one global read.
        obs.observe("online.bfs_nodes", length)
    return order[:length], predecessors


def grid_spans_from_usable(
    alive: np.ndarray, usable_across: np.ndarray, usable_down: np.ndarray
) -> bool:
    """Do the first and last rows of a rectangular bond grid touch at all?

    ``alive`` is ``(R, C)``; ``usable_across[r, c]`` bonds ``(r, c)`` to
    ``(r, c+1)`` and ``usable_down[r, c]`` bonds ``(r, c)`` to ``(r+1, c)``,
    both already masked to bonds whose endpoints are alive.  This is the
    relaxed spanning question behind the renormalization strip pre-check;
    the path search, whose failed searches fall back to it, hands over the
    usable-bond masks it has already built its move table from.  The answer
    is one compiled BFS from a virtual source hooked to the first row.
    """
    if alive.size == 0 or not alive.any():
        return False
    rows, cols = alive.shape
    total = rows * cols
    flat = np.arange(total, dtype=np.int64).reshape(rows, cols)
    across = flat[:, :-1][usable_across]
    down = flat[:-1, :][usable_down]
    starts = flat[0][alive[0]]
    sources = np.concatenate(
        [across, across + 1, down, down + cols, np.full(starts.size, total, np.int64)]
    )
    targets = np.concatenate([across + 1, across, down + cols, down, starts])
    indptr, indices = frontier_adjacency(sources, targets, total + 1)
    order, _ = frontier_bfs(indptr, indices, total)
    return bool((order // cols == rows - 1).any())


def label_grid_components(
    alive: np.ndarray, horizontal: np.ndarray, vertical: np.ndarray
) -> np.ndarray:
    """Vectorized flood fill over a rectangular grid: label per site, -1 dead.

    ``alive`` is ``(R, C)`` bool; ``horizontal[r, c]`` bonds ``(r, c)`` to
    ``(r, c+1)`` and ``vertical[r, c]`` bonds ``(r, c)`` to ``(r+1, c)``
    (masked to usable internally, so raw sampled bonds are fine).  Labels
    are flat row-major site indices; each component ends up labelled by its
    minimum index, so the labelling is deterministic.  Min-label
    propagation across the bond grids is interleaved with pointer jumping
    (``labels = labels[labels]``) so chains collapse in logarithmically
    many rounds instead of one round per grid diameter.

    This is the primitive behind :meth:`PercolatedLattice.label_components`.
    """
    rows, cols = alive.shape
    total = rows * cols
    flat = np.arange(total, dtype=np.int64)
    labels = np.where(alive.ravel(), flat, DEAD_LABEL)
    if total == 0 or not alive.any():
        return labels.reshape(rows, cols)
    horizontal = horizontal & alive[:, :-1] & alive[:, 1:]
    vertical = vertical & alive[:-1, :] & alive[1:, :]
    sentinel = total  # larger than any real label, inert under minimum
    grid = np.where(alive, flat.reshape(rows, cols), sentinel)
    while True:
        neighbor_min = grid.copy()
        if cols > 1:
            # Pull the smaller label across each usable bond, both ways.
            np.minimum(
                neighbor_min[:, :-1],
                np.where(horizontal, grid[:, 1:], sentinel),
                out=neighbor_min[:, :-1],
            )
            np.minimum(
                neighbor_min[:, 1:],
                np.where(horizontal, grid[:, :-1], sentinel),
                out=neighbor_min[:, 1:],
            )
        if rows > 1:
            np.minimum(
                neighbor_min[:-1, :],
                np.where(vertical, grid[1:, :], sentinel),
                out=neighbor_min[:-1, :],
            )
            np.minimum(
                neighbor_min[1:, :],
                np.where(vertical, grid[:-1, :], sentinel),
                out=neighbor_min[1:, :],
            )
        if np.array_equal(neighbor_min, grid):
            break
        grid = neighbor_min
        # Pointer jumping: labels are site indices, so chasing them
        # through the flat view compresses label chains exponentially.
        flat_view = np.where(alive.ravel(), grid.ravel(), sentinel)
        padded = np.append(flat_view, sentinel)  # sentinel maps to itself
        while True:
            jumped = padded[flat_view]
            if np.array_equal(jumped, flat_view):
                break
            flat_view = jumped
            padded[:total] = np.where(alive.ravel(), flat_view, sentinel)
        grid = np.where(alive, flat_view.reshape(rows, cols), sentinel)
    return np.where(alive, grid, DEAD_LABEL)


class GridComponents:
    """Connected components of a grid, backed by a flat label array.

    Quacks like a :class:`~repro.utils.dsu.DisjointSet` — ``connected``,
    ``find``, ``largest_component``, ``component_size``, ``components``,
    ``len`` — but every query is an array lookup on the ``(N, N)`` label
    grid produced by the vectorized flood fill, with per-component sizes
    precomputed by ``bincount``.
    """

    def __init__(self, labels: np.ndarray) -> None:
        self.labels = labels
        alive = labels[labels != DEAD_LABEL]
        self._alive_count = int(alive.size)
        self._sizes = (
            np.bincount(alive, minlength=labels.size) if alive.size else np.zeros(0, int)
        )

    def __len__(self) -> int:
        return self._alive_count

    def __contains__(self, coord: Coord2D) -> bool:
        return self.labels[coord] != DEAD_LABEL

    def __iter__(self) -> Iterator[Coord2D]:
        for row, col in np.argwhere(self.labels != DEAD_LABEL).tolist():
            yield (row, col)

    @property
    def component_count(self) -> int:
        """Number of disjoint components among the alive sites."""
        return int(np.count_nonzero(self._sizes))

    def find(self, coord: Coord2D) -> int:
        """Canonical representative (root label) of ``coord``'s component."""
        label = int(self.labels[coord])
        if label == DEAD_LABEL:
            raise KeyError(f"site {coord} is dead")
        return label

    def connected(self, a: Coord2D, b: Coord2D) -> bool:
        """Whether alive sites ``a`` and ``b`` share a component."""
        la, lb = self.labels[a], self.labels[b]
        return la != DEAD_LABEL and la == lb

    def component_size(self, coord: Coord2D) -> int:
        """Size of the component containing ``coord``."""
        return int(self._sizes[self.find(coord)])

    def largest_component_size(self) -> int:
        """Size of the largest component (0 if no alive sites)."""
        return int(self._sizes.max()) if self._sizes.size else 0

    def largest_component(self) -> list[Coord2D]:
        """Sites of the largest component (empty list if no alive sites)."""
        if not self._sizes.size or not self._sizes.any():
            return []
        best = int(self._sizes.argmax())
        return [tuple(coord) for coord in np.argwhere(self.labels == best).tolist()]

    def components(self) -> dict[int, list[Coord2D]]:
        """Map each root label to the list of sites in its component."""
        grouped: dict[int, list[Coord2D]] = {}
        for row, col in np.argwhere(self.labels != DEAD_LABEL).tolist():
            grouped.setdefault(int(self.labels[row, col]), []).append((row, col))
        return grouped

    def row_roots(self, row: int) -> np.ndarray:
        """Distinct root labels present among the alive sites of ``row``."""
        labels = self.labels[row]
        return np.unique(labels[labels != DEAD_LABEL])


@dataclass
class PercolatedLattice:
    """Random subgraph of an ``N x N`` square lattice.

    ``horizontal[r, c]`` is the bond between ``(r, c)`` and ``(r, c+1)``;
    ``vertical[r, c]`` is the bond between ``(r, c)`` and ``(r+1, c)``.
    A bond is usable only if it sampled open *and* both endpoint sites are
    alive.
    """

    sites: np.ndarray  # bool (N, N)
    horizontal: np.ndarray  # bool (N, N-1)
    vertical: np.ndarray  # bool (N-1, N)

    def __post_init__(self) -> None:
        n = self.sites.shape[0]
        if self.sites.shape != (n, n):
            raise RenormalizationError("sites must be square")
        if self.horizontal.shape != (n, max(0, n - 1)):
            raise RenormalizationError("horizontal bonds have the wrong shape")
        if self.vertical.shape != (max(0, n - 1), n):
            raise RenormalizationError("vertical bonds have the wrong shape")

    @property
    def size(self) -> int:
        return self.sites.shape[0]

    def has_bond(self, a: Coord2D, b: Coord2D) -> bool:
        """Whether a usable bond joins sites ``a`` and ``b`` (must be adjacent)."""
        (ra, ca), (rb, cb) = a, b
        if not (self.sites[ra, ca] and self.sites[rb, cb]):
            return False
        if ra == rb and abs(ca - cb) == 1:
            return bool(self.horizontal[ra, min(ca, cb)])
        if ca == cb and abs(ra - rb) == 1:
            return bool(self.vertical[min(ra, rb), ca])
        raise RenormalizationError(f"sites {a} and {b} are not adjacent")

    def neighbors(self, coord: Coord2D) -> Iterator[Coord2D]:
        """Alive sites connected to ``coord`` by a usable bond."""
        row, col = coord
        n = self.size
        if col + 1 < n and self.has_bond(coord, (row, col + 1)):
            yield (row, col + 1)
        if col - 1 >= 0 and self.has_bond(coord, (row, col - 1)):
            yield (row, col - 1)
        if row + 1 < n and self.has_bond(coord, (row + 1, col)):
            yield (row + 1, col)
        if row - 1 >= 0 and self.has_bond(coord, (row - 1, col)):
            yield (row - 1, col)

    def usable_bonds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bond grids masked down to bonds whose both endpoints are alive."""
        horizontal = self.horizontal & self.sites[:, :-1] & self.sites[:, 1:]
        vertical = self.vertical & self.sites[:-1, :] & self.sites[1:, :]
        return horizontal, vertical

    def label_components(self) -> np.ndarray:
        """Vectorized flood fill: component label per site, -1 where dead.

        Delegates to :func:`label_grid_components`; labels are flat site
        indices, each component labelled by its minimum index, so the
        labelling is deterministic.
        """
        return label_grid_components(self.sites, self.horizontal, self.vertical)

    def components(self) -> GridComponents:
        """Connected components of alive sites under usable bonds.

        A per-bond union-find oracle (``tests/oracles.py``) pins the
        partition.
        """
        return GridComponents(self.label_components())

    def largest_cluster_fraction(self) -> float:
        """Size of the largest cluster over total sites (the order parameter)."""
        if self.size == 0:
            return 0.0
        return self.components().largest_component_size() / (self.size * self.size)

    def spans_rows(self) -> bool:
        """Whether one component touches both the top and bottom rows.

        Intersects the root-label sets of the two edge rows — one pass over
        ``2N`` labels instead of the old ``O(N^2)`` pairwise connectivity
        checks.
        """
        if self.size == 0:
            return False
        components = self.components()
        top = components.row_roots(0)
        bottom = components.row_roots(self.size - 1)
        return bool(np.intersect1d(top, bottom, assume_unique=True).size)

    def remove_site(self, coord: Coord2D) -> None:
        """Measure a site out in Z: mark it dead (used during path carving)."""
        self.sites[coord] = False

    def copy(self) -> "PercolatedLattice":
        return PercolatedLattice(
            sites=self.sites.copy(),
            horizontal=self.horizontal.copy(),
            vertical=self.vertical.copy(),
        )


def sample_lattice(
    size: int,
    bond_probability: float,
    rng=None,
    site_alive: np.ndarray | None = None,
) -> PercolatedLattice:
    """Sample a bond-percolated ``size x size`` lattice.

    ``site_alive`` (from the RSL merging step) marks sites whose root
    survived; ``None`` means all alive.  Bond outcomes are iid Bernoulli at
    ``bond_probability`` — the leaf-leaf fusion success rate.
    """
    if size < 1:
        raise RenormalizationError(f"lattice size must be >= 1, got {size}")
    if not 0.0 <= bond_probability <= 1.0:
        raise RenormalizationError(
            f"bond probability must be in [0, 1], got {bond_probability}"
        )
    rng = ensure_rng(rng)
    sites = (
        np.ones((size, size), dtype=bool)
        if site_alive is None
        else site_alive.astype(bool).copy()
    )
    horizontal = rng.random((size, max(0, size - 1))) < bond_probability
    vertical = rng.random((max(0, size - 1), size)) < bond_probability
    return PercolatedLattice(sites=sites, horizontal=horizontal, vertical=vertical)


def spanning_probability(
    size: int,
    bond_probability: float,
    trials: int,
    rng=None,
) -> float:
    """Monte-Carlo estimate of the top-bottom spanning probability.

    Used by the tests to confirm the implementation reproduces the
    square-lattice bond percolation threshold of 1/2 [40] — the fact the
    whole online pass rests on.
    """
    rng = ensure_rng(rng)
    hits = 0
    for _ in range(trials):
        lattice = sample_lattice(size, bond_probability, rng)
        hits += int(lattice.spans_rows())
    return hits / trials
