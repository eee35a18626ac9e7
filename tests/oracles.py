"""Test-only reference implementations the product kernels are pinned to.

Each oracle is the original formulation of a kernel that now runs on the
compiled frontier engine, on shrinking index vectors, on flat cell
indices, on one batched draw or on incrementally kept state; the property
suites assert the two agree exactly, including the work counts the
Fig. 14 cost proxy is built from, the fusion draws the device RNG makes
and every offline mapper decision.

:func:`build_exact_layer` is the ground truth under the site/bond
abstraction itself: it builds the real graph state of one small RSL with
real type-II fusions on real star resource states, including the
Section 4.2 cleanup (a failed root-leaf merge leaves the Fig. 8 cyclic
structure, restored to a star by a local complementation recorded in a
:class:`LocalOpLedger`).  Its bond map must match the root-to-root
connectivity of that state, fusion for fusion.

The renormalization oracles plug in without a product seam:
:class:`ScalarCarver` subclasses the product's ``_Carver`` and
:func:`carving` swaps it in as the module global ``renormalize`` builds,
so ``renormalize`` and everything on top of it (modular renormalization,
the online reshaper, the experiments) run the scalar search.
:func:`grid_path`, :func:`coordinate_intersections` and
:func:`modular_renormalize_coordinates` are the eager coordinate
construction and joins from before results kept flat site indices.

:func:`check_renormalization` and :func:`check_reshape_metrics` are
certificates rather than twins: they check one result's invariants
without recomputing it.

:func:`unrewritten_passes` is the default compile chain without its
pattern-rewrite pass, the byte-identity oracle for that pass.

The front end's oracles are the code the lowering table and the one-pass
translation and DAG replaced: :func:`to_jcz_gates` (gate-by-gate lowering, then the
``J(0) J(0)`` peephole as a pass over the lowered circuit),
:func:`translate_circuit_gates` (the pattern built through ``GraphState``
calls) and :class:`SetDependencyDAG` (successor and predecessor sets).
:func:`pattern_dump` is the canonical form they are compared in, adjacency
iteration order included; :func:`dag_predecessors` and :func:`dag_depth`
are the queries the product DAG no longer offers.
"""

from __future__ import annotations

import importlib
import math
from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from semantics import (
    LocalOpLedger,
    ResourceStateInstance,
    apply_fusion,
    emit_star,
    local_complement,
    toggle_edge,
)

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.errors import CircuitError, HardwareError, RenormalizationError, TranslationError
from repro.graphstate.graph import GraphState
from repro.graphstate.resource import ResourceStateSpec
from repro.hardware.architecture import LATTICE_DEGREE_2D, HardwareConfig
from repro.hardware.fusion import FusionDevice
from repro.hardware.rsg import MergeResult
from repro.ir import (
    ROLE_ANCILLA,
    ROLE_GRAPH,
    ROLE_WORLDLINE,
    EnableSpatialVEdge,
    EnableTemporalVEdge,
    FlexLatticeIR,
    Instruction,
    MakeVNodeAncilla,
    MapVNode,
    RetrieveVNode,
    StoreVNode,
)
from repro.mbqc.dependency import DependencyDAG
from repro.mbqc.pattern import MeasurementPattern, PatternNode
from repro.offline.routing import LayerGrid
from repro.online.fusion_strategy import TEMPORAL_RESERVE
from repro.online.modular import ModularLayout, ModularResult, _module_lattice
from repro.online.percolation import (
    NO_PREDECESSOR,
    PercolatedLattice,
    grid_spans_from_usable,
    sample_lattice,
)
from repro.online.timelike import (
    TEMPORAL_FANOUT,
    LayerDemand,
    OnlineReshaper,
    ReshapeMetrics,
)
from repro.pipeline.passes import (
    CompilerPass,
    OfflineMapPass,
    OnlineReshapePass,
    TranslatePass,
)
from repro.utils.dsu import DisjointSet
from repro.utils.gridgeom import Coord2D, Coord3D, grid_neighbors4, iter_grid
from repro.viz import GLYPH_ANCILLA, GLYPH_EMPTY, GLYPH_GRAPH, GLYPH_WORLDLINE

# ``repro.online`` re-exports the ``renormalize`` function under the
# submodule's name, so the module is fetched by its full name.
renormalize_module = importlib.import_module("repro.online.renormalize")
_Carver = renormalize_module._Carver
_FREE = renormalize_module._FREE
_VERTICAL = renormalize_module._VERTICAL
_HORIZONTAL = renormalize_module._HORIZONTAL


def corridor_connected_scalar(
    lattice: PercolatedLattice,
    sources: list[Coord2D],
    targets: set[Coord2D],
    row_range: tuple[int, int],
    col_range: tuple[int, int],
) -> tuple[bool, int]:
    """Per-cell deque BFS twin of ``repro.online.modular._corridor_connected``.

    Starts from every in-window alive source site (in path order), walks
    usable bonds in :meth:`PercolatedLattice.neighbors` order without
    leaving the window, and stops at the first popped target site.
    Returns (reached, sites popped).
    """

    def inside(coord: Coord2D) -> bool:
        return (
            row_range[0] <= coord[0] < row_range[1]
            and col_range[0] <= coord[1] < col_range[1]
        )

    queue: deque[Coord2D] = deque()
    seen: set[Coord2D] = set()
    for coord in sources:
        if inside(coord) and lattice.sites[coord]:
            queue.append(coord)
            seen.add(coord)
    visited = 0
    while queue:
        current = queue.popleft()
        visited += 1
        if current in targets:
            return True, visited
        for neighbor in lattice.neighbors(current):
            if neighbor not in seen and inside(neighbor):
                seen.add(neighbor)
                queue.append(neighbor)
    return False, visited


def merge_layers_masks(config: HardwareConfig, device: FusionDevice) -> MergeResult:
    """Full-mask twin of ``repro.hardware.rsg.RSGArray.merge_layers``.

    Every retry round recomputes ``(n, n)`` masks of the pending,
    attemptable, exhausted, succeeded and failed sites; attempts are drawn
    for the attemptable sites in row-major order.
    """
    n = config.rsl_size
    star_degree = config.resource_state.max_degree
    merges = config.merged_rsls_per_layer - 1

    alive = np.ones((n, n), dtype=bool)
    degrees = np.full((n, n), star_degree, dtype=np.int64)
    merge_fusions = 0
    for _ in range(merges):
        joiner = np.full((n, n), star_degree, dtype=np.int64)
        pending = alive.copy()
        while pending.any():
            attemptable = pending & (degrees >= 1) & (joiner >= 1)
            exhausted = pending & ~attemptable
            alive[exhausted] = False
            pending[exhausted] = False
            count = int(attemptable.sum())
            if count == 0:
                break
            outcomes = device.attempt_batch(count, "root-leaf")
            merge_fusions += count
            success = np.zeros((n, n), dtype=bool)
            success[attemptable] = outcomes
            failure = attemptable & ~success
            degrees[success] += joiner[success] - 1
            pending[success] = False
            degrees[failure] -= 1
            joiner[failure] -= 1
    return MergeResult(alive=alive, degrees=degrees, merge_fusions=merge_fusions)


@dataclass
class ReferenceFormation:
    """The fields ``form_layer_reference`` returns, with the temporal budget
    stored rather than derived."""

    lattice: PercolatedLattice
    rsls_used: int
    merge_fusions: int
    spatial_fusions: int
    spatial_retries: int
    temporal_budget: np.ndarray  # int (N, N): leaves left for temporal bonds


def _attempt_bonds_with_retry_reference(
    device: FusionDevice,
    redundancy: np.ndarray,
    endpoint_a: tuple[slice, slice],
    endpoint_b: tuple[slice, slice],
    shape: tuple[int, int],
) -> tuple[np.ndarray, int, int]:
    """Masked twin of ``repro.online.fusion_strategy._attempt_bonds_with_retry``.

    ``endpoint_a``/``endpoint_b`` slice the site-indexed ``redundancy`` array
    down to the two endpoint grids of the bond array (shape ``shape``).
    Failed bonds retry once where *both* endpoints still hold a redundant
    leaf, consuming one from each.  Returns (bond outcomes, attempts, retries).
    """
    outcomes = device.attempt_grid(shape, "leaf-leaf")
    attempts = int(np.prod(shape))
    red_a = redundancy[endpoint_a]
    red_b = redundancy[endpoint_b]
    retry_mask = (~outcomes) & (red_a >= 1) & (red_b >= 1)
    retries = int(retry_mask.sum())
    if retries:
        red_a[retry_mask] -= 1
        red_b[retry_mask] -= 1
        second = device.attempt_batch(retries, "leaf-leaf")
        outcomes[retry_mask] = second
        attempts += retries
    return outcomes, attempts, retries


def form_layer_reference(
    config: HardwareConfig, device: FusionDevice
) -> ReferenceFormation:
    """Masked twin of ``repro.online.fusion_strategy.form_layer``.

    Merges with :func:`merge_layers_masks`, clips the redundancy to the
    alive sites, samples horizontal then vertical bonds with one retry
    round each, and stores the temporal budget per site.
    """
    n = config.rsl_size
    merge = merge_layers_masks(config, device)

    # Redundancy per site: leaves beyond the 4 spatial + 2 temporal demand.
    redundancy = merge.degrees - (LATTICE_DEGREE_2D + TEMPORAL_RESERVE)
    redundancy = np.clip(redundancy, 0, None)
    redundancy[~merge.alive] = 0

    horizontal, h_attempts, h_retries = _attempt_bonds_with_retry_reference(
        device,
        redundancy,
        (slice(None), slice(0, n - 1)),
        (slice(None), slice(1, n)),
        (n, n - 1),
    )
    vertical, v_attempts, v_retries = _attempt_bonds_with_retry_reference(
        device,
        redundancy,
        (slice(0, n - 1), slice(None)),
        (slice(1, n), slice(None)),
        (n - 1, n),
    )

    lattice = PercolatedLattice(
        sites=merge.alive.copy(),
        horizontal=horizontal,
        vertical=vertical,
    )
    temporal_budget = np.full((n, n), TEMPORAL_RESERVE, dtype=np.int64)
    temporal_budget += redundancy  # unspent retries remain usable temporally
    temporal_budget[~merge.alive] = 0
    return ReferenceFormation(
        lattice=lattice,
        rsls_used=config.merged_rsls_per_layer,
        merge_fusions=merge.merge_fusions,
        spatial_fusions=h_attempts + v_attempts,
        spatial_retries=h_retries + v_retries,
        temporal_budget=temporal_budget,
    )


def establish_connections_loop(
    reshaper: OnlineReshaper, demand: LayerDemand, metrics: ReshapeMetrics
) -> bool:
    """Per-connection twin of ``OnlineReshaper._establish_connections``.

    One ``attempt_batch(TEMPORAL_FANOUT, "temporal")`` per demanded
    connection; the layer qualifies only if every connection had at least
    one successful fusion.  The demand must fit the virtual layer.
    """
    total = demand.adjacent_connections + demand.cross_connections
    ok = True
    for _ in range(total):
        outcomes = reshaper.device.attempt_batch(TEMPORAL_FANOUT, "temporal")
        if not outcomes.any():
            ok = False
    if not ok:
        metrics.connection_failures += 1
    return ok


def check_reshape_metrics(metrics: ReshapeMetrics, config: HardwareConfig) -> None:
    """Certificate for the accounting of one completed online run.

    Raises ``AssertionError`` unless every attempt is a logical or a routing
    layer, each formed from ``merged_rsls_per_layer`` RSLs, no more
    renormalizations succeeded than were attempted, each logical layer left
    one strictly increasing RSL mark, and no stored photon outlived the
    configured lifetime.
    """
    attempts = metrics.renormalization_attempts
    assert metrics.renormalization_successes <= attempts
    assert metrics.logical_layers + metrics.routing_layers == attempts
    assert metrics.rsl_consumed == attempts * config.merged_rsls_per_layer
    assert len(metrics.visited_sites_per_attempt) == attempts
    marks = metrics.logical_layer_rsl_marks
    assert len(marks) == metrics.logical_layers
    assert all(earlier < later for earlier, later in zip(marks, marks[1:]))
    assert metrics.max_storage_cycles <= config.photon_lifetime


def frontier_bfs_python(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-python twin of scipy's compiled breadth-first kernel.

    Bit-for-bit the contract of ``repro.online.percolation.frontier_bfs``:
    FIFO pops, per-node edges walked in CSR storage order, the first
    discoverer becoming the predecessor.  The engine-parity tests pin
    scipy's (undocumented but load-bearing) tie-break behaviour against it.
    """
    node_count = indptr.shape[0] - 1
    predecessors = np.full(node_count, NO_PREDECESSOR, dtype=np.int32)
    indptr_list = indptr.tolist()
    indices_list = indices.tolist()
    seen = bytearray(node_count)
    seen[source] = 1
    order = [source]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for neighbor in indices_list[indptr_list[node] : indptr_list[node + 1]]:
            if not seen[neighbor]:
                seen[neighbor] = 1
                predecessors[neighbor] = node
                order.append(neighbor)
    return np.array(order, dtype=np.int32), predecessors


def components_dsu(lattice: PercolatedLattice) -> DisjointSet:
    """Per-bond union-find twin of ``PercolatedLattice.components``."""
    dsu: DisjointSet = DisjointSet()
    alive_rows, alive_cols = np.nonzero(lattice.sites)
    for row, col in zip(alive_rows.tolist(), alive_cols.tolist()):
        dsu.add((row, col))
    h_rows, h_cols = np.nonzero(lattice.horizontal)
    for row, col in zip(h_rows.tolist(), h_cols.tolist()):
        if lattice.sites[row, col] and lattice.sites[row, col + 1]:
            dsu.union((row, col), (row, col + 1))
    v_rows, v_cols = np.nonzero(lattice.vertical)
    for row, col in zip(v_rows.tolist(), v_cols.tolist()):
        if lattice.sites[row, col] and lattice.sites[row + 1, col]:
            dsu.union((row, col), (row + 1, col))
    return dsu


def grid_spans(alive: np.ndarray, horizontal: np.ndarray, vertical: np.ndarray) -> bool:
    """Do the first and last rows of a rectangular bond grid touch at all?

    ``grid_spans_from_usable`` on raw sampled bonds: ``alive`` is ``(R, C)``,
    ``horizontal`` bonds run along axis 1 and ``vertical`` along axis 0,
    masked here to bonds whose endpoints are both alive.
    """
    usable_across = horizontal & alive[:, :-1] & alive[:, 1:]
    usable_down = vertical & alive[:-1, :] & alive[1:, :]
    return grid_spans_from_usable(alive, usable_across, usable_down)


def _strip_arrays(
    lattice: PercolatedLattice, vertical: bool, low: int, high: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strip-view arrays with axis 0 along the spanning direction.

    Returns ``(alive, across, along)``: the ``(n, w)`` liveness view, the
    ``(n, w-1)`` bonds across the strip width, and the ``(n-1, w)`` bonds
    along the spanning axis.  Row bands are transposed so both orientations
    share one top-to-bottom geometry.
    """
    if vertical:
        alive = lattice.sites[:, low:high]
        across = lattice.horizontal[:, low : max(low, high - 1)]
        along = lattice.vertical[:, low:high]
    else:
        alive = lattice.sites[low:high, :].T
        across = lattice.vertical[low : max(low, high - 1), :].T
        along = lattice.horizontal[low:high, :].T
    return alive, across, along


def strip_spans(lattice: PercolatedLattice, vertical: bool, low: int, high: int) -> bool:
    """Strip pre-check on the product's spanning check: do the two far edges touch?

    Runs on the relaxed graph that ignores crossing constraints, so a
    negative answer is definitive while a positive one still needs a path
    search.  The strip subgrid (transposed for row bands, so the spanning
    axis is always rows) goes to :func:`grid_spans`.
    """
    alive, across, along = _strip_arrays(lattice, vertical, low, high)
    if alive.size == 0:
        return False
    return grid_spans(alive, across, along)


def strip_spans_dsu(
    lattice: PercolatedLattice, vertical: bool, low: int, high: int
) -> bool:
    """Flat union-find twin of :func:`strip_spans`, one bond at a time."""
    n = lattice.size
    width = high - low
    if width <= 0:
        return False
    total = n * width
    parent = list(range(total))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def flat(a: int, b: int) -> int:
        # a runs along the spanning axis, b across the strip width.
        return a * width + (b - low)

    dead = ~lattice.sites
    for a in range(n):
        for b in range(low, high):
            coord = (a, b) if vertical else (b, a)
            if dead[coord]:
                continue
            here = flat(a, b)
            if a > 0:
                back = (a - 1, b) if vertical else (b, a - 1)
                if not dead[back] and lattice.has_bond(coord, back):
                    ra, rb = find(here), find(flat(a - 1, b))
                    if ra != rb:
                        parent[ra] = rb
            if b > low:
                side = (a, b - 1) if vertical else (b - 1, a)
                if not dead[side] and lattice.has_bond(coord, side):
                    ra, rb = find(here), find(flat(a, b - 1))
                    if ra != rb:
                        parent[ra] = rb
    first_roots = {
        find(flat(0, b))
        for b in range(low, high)
        if not dead[(0, b) if vertical else (b, 0)]
    }
    return any(
        find(flat(n - 1, b)) in first_roots
        for b in range(low, high)
        if not dead[(n - 1, b) if vertical else (b, n - 1)]
    )


class ScalarCarver(_Carver):
    """Check-first per-cell deque BFS twin of ``_Carver.find_path``.

    Every query charges the strip area and runs :attr:`precheck` first
    (the union-find :func:`strip_spans_dsu`); only a spanning strip is
    searched, cell by cell, each pop charged.  Moves are tried in grid
    order ((-1,0),(1,0),(0,-1),(0,1)), which fixes the tie-breaks the
    product's wavefront search reproduces.
    """

    precheck = staticmethod(strip_spans_dsu)

    def find_path(self, vertical: bool, index: int, count: int) -> np.ndarray | None:
        path = self._search(vertical, index, count)
        if path is None:
            return None
        return flat_sites(path, self.size)

    def _bond(self, a: Coord2D, b: Coord2D) -> bool:
        return self.lattice.has_bond(a, b)

    def _free(self, coord: Coord2D) -> bool:
        return self.owner[coord] == _FREE

    def _search(self, vertical: bool, index: int, count: int) -> list[Coord2D] | None:
        low, high = self._strip_range(index, count)
        if high - low < 1:
            raise RenormalizationError("strip is empty; target size too large")
        self.visited_sites += self.size * (high - low)
        if not self.precheck(self.lattice, vertical, low, high):
            return None

        other_owner = _HORIZONTAL if vertical else _VERTICAL
        n = self.size

        def in_strip(coord: Coord2D) -> bool:
            lane = coord[1] if vertical else coord[0]
            return low <= lane < high

        goal_axis = n - 1

        def axis_of(coord: Coord2D) -> int:
            return coord[0] if vertical else coord[1]

        def moves(coord: Coord2D):
            row, col = coord
            for drow, dcol in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                step = (row + drow, col + dcol)
                if not (0 <= step[0] < n and 0 <= step[1] < n):
                    continue
                if not in_strip(step):
                    continue
                if not self._bond(coord, step):
                    continue
                if self._free(step):
                    yield step, (step,)
                elif self.owner[step] == other_owner:
                    if axis_of(step) == goal_axis:
                        # Crossing right at the far edge: the perpendicular
                        # path's site serves as the endpoint.
                        yield step, (step,)
                        continue
                    # Cross the perpendicular path straight through.
                    landing = (step[0] + drow, step[1] + dcol)
                    if (
                        0 <= landing[0] < n
                        and 0 <= landing[1] < n
                        and in_strip(landing)
                        and self._free(landing)
                        and self._bond(step, landing)
                    ):
                        yield landing, (step, landing)

        # Start cells on the near edge: free cells start normally; cells
        # owned by a perpendicular path are entered as crossings (step
        # straight in, or end immediately on a 1-wide lattice).
        parent: dict[Coord2D, tuple[Coord2D, tuple[Coord2D, ...]]] = {}
        queue: deque[Coord2D] = deque()
        seen: set[Coord2D] = set()
        for lane in range(low, high):
            cell = (0, lane) if vertical else (lane, 0)
            if self._free(cell):
                seen.add(cell)
                queue.append(cell)
            elif self.owner[cell] == other_owner:
                if goal_axis == 0:
                    # Degenerate 1-wide lattice: the crossing site alone
                    # spans it.
                    return [cell]
                inward = (1, lane) if vertical else (lane, 1)
                if (
                    0 <= inward[0] < n
                    and 0 <= inward[1] < n
                    and in_strip(inward)
                    and self._free(inward)
                    and self._bond(cell, inward)
                    and inward not in seen
                ):
                    seen.add(inward)
                    parent[inward] = (cell, (inward,))
                    seen.add(cell)
                    queue.append(inward)
        goal: Coord2D | None = None
        while queue:
            current = queue.popleft()
            self.visited_sites += 1
            if axis_of(current) == goal_axis:
                goal = current
                break
            for landing, hops in moves(current):
                if landing not in seen:
                    seen.add(landing)
                    parent[landing] = (current, hops)
                    queue.append(landing)
        if goal is None:
            return None

        # Reconstruct, including crossing sites, root to goal.
        path: list[Coord2D] = [goal]
        node = goal
        while node in parent:
            previous, hops = parent[node]
            for hop in reversed(hops[:-1]):
                path.append(hop)
            path.append(previous)
            node = previous
        path.reverse()
        return path


class ScalarCarverStripCheck(ScalarCarver):
    """:class:`ScalarCarver` checking strips with :func:`strip_spans`."""

    precheck = staticmethod(strip_spans)


#: Both scalar oracles: the deque BFS behind either strip pre-check.
SCALAR_CARVERS = (ScalarCarver, ScalarCarverStripCheck)


@contextmanager
def carving(carver: type = ScalarCarver) -> Iterator[None]:
    """Run ``renormalize`` (and all built on it) with ``carver`` searching."""
    original = renormalize_module._Carver
    renormalize_module._Carver = carver
    try:
        yield
    finally:
        renormalize_module._Carver = original


def renormalize_scalar(
    lattice: PercolatedLattice,
    target_size: int,
    work_budget: int | None = None,
    carver: type = ScalarCarver,
):
    """``renormalize`` with a scalar oracle carver swapped in."""
    with carving(carver):
        return renormalize_module.renormalize(lattice, target_size, work_budget)


def flat_sites(path: list[Coord2D], size: int) -> np.ndarray:
    """A coordinate path as flat site indices ``row * size + col``."""
    rows, cols = np.array(path).T
    return rows * size + cols


def grid_path(sites: np.ndarray, size: int) -> list[Coord2D]:
    """Flat site indices as python-int ``(row, col)`` tuples: the per-path
    zip ``find_path`` ran eagerly on every path it found, before results
    kept flat sites and built coordinates on demand."""
    rows = sites // size
    cols = sites - rows * size
    return list(zip(rows.tolist(), cols.tolist()))


def coordinate_intersections(
    vertical_paths: list[list[Coord2D]], horizontal_paths: list[list[Coord2D]]
) -> dict[tuple[int, int], Coord2D]:
    """Coordinate twin of ``repro.online.renormalize._intersections``.

    Rescans every horizontal path against every vertical path's site set:
    the first shared site along the horizontal path is the pair's node,
    inserted in ascending ``h_index``, then ``v_index``, order.
    """
    nodes = {}
    vertical_sets = [set(path) for path in vertical_paths]
    for h_index, h_path in enumerate(horizontal_paths):
        for v_index, v_sites in enumerate(vertical_sets):
            for coord in h_path:
                if coord in v_sites:
                    nodes[(v_index, h_index)] = coord
                    break
    return nodes


def check_renormalization(lattice: PercolatedLattice, result) -> None:
    """Certificate for one ``renormalize`` result on ``lattice``.

    Raises ``AssertionError`` unless the paths are claimed as the carver
    claims them, vertical and horizontal alternately from index 0:

    * each path runs from the near edge to the far edge inside its own
      column strip (vertical) or row band (horizontal), over alive sites
      joined by usable bonds;
    * same-orientation paths are disjoint;
    * a site a path shares with an earlier perpendicular path is one of
      its ends, or a two-hop crossing: passed straight through, between
      two sites no earlier path owns;
    * a result with all ``2 k`` paths has the complete ``k x k`` node
      grid, each node the first site of its horizontal path on its
      vertical path, and succeeds; any other result fails with the smaller
      path count as its size.

    A pair of paths may cross more than once (each crossing straight
    through); the node is the first crossing along the horizontal path.
    """
    n, k = lattice.size, result.target_size
    vertical_paths, horizontal_paths = result.vertical_paths, result.horizontal_paths
    assert len(horizontal_paths) <= len(vertical_paths) <= len(horizontal_paths) + 1 <= k + 1
    owner: dict[Coord2D, bool] = {}
    claims = [(True, index) for index in range(len(vertical_paths))]
    claims += [(False, index) for index in range(len(horizontal_paths))]
    for vertical, index in sorted(claims, key=lambda claim: (claim[1], not claim[0])):
        path = (vertical_paths if vertical else horizontal_paths)[index]
        low, high = (index * n) // k, ((index + 1) * n) // k
        spans = [coord[0] if vertical else coord[1] for coord in path]
        assert spans[0] == 0 and spans[-1] == n - 1, "path does not span the lattice"
        assert all(
            low <= (coord[1] if vertical else coord[0]) < high for coord in path
        ), "path leaves its strip"
        assert len(set(path)) == len(path), "path revisits a site"
        assert all(lattice.sites[coord] for coord in path), "path on a dead site"
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 and lattice.has_bond(a, b), (
                "path steps over a missing bond"
            )
        for position, coord in enumerate(path):
            if coord not in owner:
                continue
            assert owner[coord] != vertical, "same-orientation paths share a site"
            if 0 < position < len(path) - 1:
                before, after = path[position - 1], path[position + 1]
                assert 2 * coord[0] == before[0] + after[0], "crossing turns"
                assert 2 * coord[1] == before[1] + after[1], "crossing turns"
                assert before not in owner and after not in owner, (
                    "crossing steps between owned sites"
                )
        for coord in path:
            owner.setdefault(coord, vertical)
    complete = len(vertical_paths) == len(horizontal_paths) == k
    if not complete:
        assert not result.success and result.node_sites == {}
        assert result.lattice_size == min(len(vertical_paths), len(horizontal_paths))
        return
    assert result.success and result.lattice_size == k
    assert result.node_sites == coordinate_intersections(vertical_paths, horizontal_paths)
    assert list(result.node_sites) == [(v, h) for h in range(k) for v in range(k)]


def modular_renormalize_coordinates(
    lattice: PercolatedLattice, node_size: int, num_modules: int, mi_ratio: float
) -> ModularResult:
    """Coordinate twin of ``repro.online.modular.modular_renormalize``.

    Each module runs the product ``renormalize``; the corridor joins shift
    each module's *coordinate* paths by its origin and join them with the
    per-cell BFS :func:`corridor_connected_scalar`, the way the product
    joined them before results kept flat sites.
    """
    layout = ModularLayout.fit(lattice.size, num_modules, mi_ratio)
    g, size = layout.modules_per_side, layout.module_size
    target = max(1, size // node_size)
    fringe = max(1, node_size)
    origin = layout.module_origin
    results = [
        [
            renormalize_module.renormalize(_module_lattice(lattice, layout, mi, mj), target)
            for mj in range(g)
        ]
        for mi in range(g)
    ]

    def survivors(horizontal: bool) -> tuple[int, int]:
        """(surviving global lines, join work) of one orientation."""
        count = work = 0
        for line in range(g):
            modules = [results[line][m] if horizontal else results[m][line] for m in range(g)]
            if not all(module.success for module in modules):
                continue

            def shifted(m: int, local: int) -> list[Coord2D]:
                """Module ``m``'s path ``local`` in lattice coordinates."""
                paths = modules[m].horizontal_paths if horizontal else modules[m].vertical_paths
                d_row, d_col = (origin(line), origin(m)) if horizontal else (origin(m), origin(line))
                return [(row + d_row, col + d_col) for row, col in paths[local]]

            for local in range(target):
                connected = True
                for m in range(g - 1):
                    along = (origin(line), origin(line) + size)
                    across = (origin(m) + size - fringe, origin(m + 1) + fringe)
                    rows, cols = (along, across) if horizontal else (across, along)
                    reached, visited = corridor_connected_scalar(
                        lattice, shifted(m, local), set(shifted(m + 1, local)), rows, cols
                    )
                    work += visited
                    if not reached:
                        connected = False
                        break
                count += connected
        return count, work

    surviving_rows, row_work = survivors(True)
    surviving_cols, col_work = survivors(False)
    module_results = [result for row in results for result in row]
    module_work = [result.visited_sites for result in module_results]
    return ModularResult(
        layout=layout,
        surviving_rows=surviving_rows,
        surviving_cols=surviving_cols,
        module_results=module_results,
        wall_visited_sites=max(module_work) + row_work + col_work,
        total_visited_sites=sum(module_work) + row_work + col_work,
    )


def suitable_node_size_exhaustive(
    rsl_size: int, rate: float, trials: int, rng, threshold: float
) -> int:
    """Fig. 13(a)'s node-size search renormalizing every trial of every
    node size tried, before trials stopped once a node size was decided."""
    for node in range(4, rsl_size + 1, 2):
        target = rsl_size // node
        if target < 1:
            break
        hits = sum(
            renormalize_module.renormalize(sample_lattice(rsl_size, rate, rng), target).success
            for _ in range(trials)
        )
        if hits / trials >= threshold:
            return node
    return rsl_size


_PI = math.pi


def lower_gate(gate: Gate, out: Circuit) -> None:
    """Append the ``{J, CZ}`` expansion of ``gate`` to ``out``, one validated
    ``Gate`` at a time: the recursive lowering ``repro.circuits.jcz.LOWERING``
    replaced."""
    name = gate.name
    qubits = gate.qubits
    if name == "j":
        out.j(gate.params[0], qubits[0])
    elif name == "cz":
        out.cz(*qubits)
    elif name == "h":
        out.j(0.0, qubits[0])
    elif name in ("rz", "p"):
        out.j(gate.params[0], qubits[0])
        out.j(0.0, qubits[0])
    elif name == "z":
        out.j(_PI, qubits[0])
        out.j(0.0, qubits[0])
    elif name == "s":
        out.j(_PI / 2, qubits[0])
        out.j(0.0, qubits[0])
    elif name == "sdg":
        out.j(-_PI / 2, qubits[0])
        out.j(0.0, qubits[0])
    elif name == "t":
        out.j(_PI / 4, qubits[0])
        out.j(0.0, qubits[0])
    elif name == "tdg":
        out.j(-_PI / 4, qubits[0])
        out.j(0.0, qubits[0])
    elif name == "x":
        out.j(0.0, qubits[0])
        out.j(_PI, qubits[0])
    elif name == "rx":
        out.j(0.0, qubits[0])
        out.j(gate.params[0], qubits[0])
    elif name == "y":
        lower_gate(Gate("z", qubits), out)
        lower_gate(Gate("x", qubits), out)
    elif name == "ry":
        lower_gate(Gate("rz", qubits, (-_PI / 2,)), out)
        lower_gate(Gate("rx", qubits, gate.params), out)
        lower_gate(Gate("rz", qubits, (_PI / 2,)), out)
    elif name == "cx":
        control, target = qubits
        out.j(0.0, target)
        out.cz(control, target)
        out.j(0.0, target)
    elif name == "cp":
        theta = gate.params[0]
        control, target = qubits
        lower_gate(Gate("rz", (control,), (theta / 2,)), out)
        lower_gate(Gate("rz", (target,), (theta / 2,)), out)
        lower_gate(Gate("cx", (control, target)), out)
        lower_gate(Gate("rz", (target,), (-theta / 2,)), out)
        lower_gate(Gate("cx", (control, target)), out)
    elif name == "swap":
        a, b = qubits
        for pair in ((a, b), (b, a), (a, b)):
            lower_gate(Gate("cx", pair), out)
    elif name == "ccx":
        c1, c2, target = qubits
        steps = [
            Gate("h", (target,)),
            Gate("cx", (c2, target)),
            Gate("tdg", (target,)),
            Gate("cx", (c1, target)),
            Gate("t", (target,)),
            Gate("cx", (c2, target)),
            Gate("tdg", (target,)),
            Gate("cx", (c1, target)),
            Gate("t", (c2,)),
            Gate("t", (target,)),
            Gate("h", (target,)),
            Gate("cx", (c1, c2)),
            Gate("t", (c1,)),
            Gate("tdg", (c2,)),
            Gate("cx", (c1, c2)),
        ]
        for step in steps:
            lower_gate(step, out)
    else:
        raise CircuitError(f"no {{J, CZ}} lowering for gate {name!r}")


def merge_adjacent_j(circuit: Circuit) -> Circuit:
    """The ``J(0) J(0)`` peephole as a pass over a lowered circuit: buffer a
    ``J(0)`` per wire, cancel it against the next, flush it before any other
    gate on its wire and, at the end, in wire order."""
    out = Circuit(circuit.num_qubits, name=circuit.name)
    pending: dict[int, Gate] = {}

    def flush(qubit: int) -> None:
        gate = pending.pop(qubit, None)
        if gate is not None:
            out.append(gate)

    for gate in circuit.gates:
        if gate.name == "j" and gate.params[0] == 0.0:
            qubit = gate.qubits[0]
            if qubit in pending:
                pending.pop(qubit)
            else:
                pending[qubit] = gate
            continue
        for qubit in gate.qubits:
            flush(qubit)
        out.append(gate)
    for qubit in sorted(pending):
        flush(qubit)
    return out


def to_jcz_gates(circuit: Circuit, simplify: bool = True) -> Circuit:
    """``to_jcz`` as it was: lower gate by gate, then run the peephole over
    the lowered circuit."""
    lowered = Circuit(circuit.num_qubits, name=f"{circuit.name}:jcz")
    for gate in circuit.gates:
        lower_gate(gate, lowered)
    return merge_adjacent_j(lowered) if simplify else lowered


def translate_circuit_gates(circuit: Circuit, simplify: bool = True) -> MeasurementPattern:
    """``translate_circuit`` as it was: lower to a ``{J, CZ}`` circuit (unless
    the input already is one), then build the pattern through ``GraphState``
    calls, one gate at a time."""
    jcz = circuit if circuit.is_jcz() else to_jcz_gates(circuit, simplify=simplify)
    graph = GraphState()
    nodes: dict[int, PatternNode] = {}
    current: list[int] = []

    def new_node(wire: int) -> int:
        node_id = len(nodes)
        graph.add_node(node_id)
        nodes[node_id] = PatternNode(node_id=node_id, wire=wire)
        return node_id

    for wire in range(jcz.num_qubits):
        current.append(new_node(wire))
    inputs = list(current)
    for gate in jcz.gates:
        if gate.name == "j":
            wire = gate.qubits[0]
            fresh = new_node(wire)
            old = current[wire]
            graph.add_edge(old, fresh)
            nodes[old].angle = float(gate.params[0])
            nodes[old].successor = fresh
            current[wire] = fresh
        else:
            a, b = gate.qubits
            toggle_edge(graph, current[a], current[b])
    pattern = MeasurementPattern(
        graph=graph,
        nodes=nodes,
        inputs=inputs,
        outputs=list(current),
        name=f"{circuit.name}:pattern",
    )
    pattern.validate()
    return pattern


def pattern_dump(pattern: MeasurementPattern) -> list:
    """A pattern in canonical JSON-able form, iteration orders included: its
    name, every node's (id, wire, angle, successor) in dict order, inputs,
    outputs, and every node's adjacency in the order its set iterates (the
    order the offline mapper reads it in)."""
    return [
        pattern.name,
        [[n.node_id, n.wire, n.angle, n.successor] for n in pattern.nodes.values()],
        list(pattern.inputs),
        list(pattern.outputs),
        [[node, list(around)] for node, around in pattern.graph._adjacency.items()],
    ]


class SetDependencyDAG:
    """``DependencyDAG`` as it was: a successor and a predecessor set per
    node, acyclicity checked by a sorted topological order."""

    def __init__(self, pattern: MeasurementPattern) -> None:
        self.pattern = pattern
        self.successors: dict[int, set[int]] = {node: set() for node in pattern.nodes}
        self.predecessors: dict[int, set[int]] = {node: set() for node in pattern.nodes}
        for node_id, node in pattern.nodes.items():
            if node.is_output:
                continue
            later_nodes = {node.successor}
            later_nodes.update(
                neighbor
                for neighbor in pattern.graph.neighbors(node.successor)
                if neighbor != node_id
            )
            for later in later_nodes:
                self.successors[node_id].add(later)
                self.predecessors[later].add(node_id)
        if len(self.topological_order()) != len(self.successors):
            raise TranslationError("dependency graph has a cycle; no causal flow")

    def topological_order(self) -> list[int]:
        indegree = {node: len(preds) for node, preds in self.predecessors.items()}
        ready = sorted(node for node, count in indegree.items() if count == 0)
        order: list[int] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            inserted = False
            for later in sorted(self.successors[current]):
                indegree[later] -= 1
                if indegree[later] == 0:
                    ready.append(later)
                    inserted = True
            if inserted:
                ready.sort()
        return order


def dag_predecessors(dag: DependencyDAG, node: int) -> set[int]:
    """Nodes that must come before ``node`` (a scan over every successor set)."""
    return {before for before, later in dag.successors.items() if node in later}


def dag_depth(dag: DependencyDAG) -> int:
    """Length of the longest dependency chain (a lower bound on layers)."""
    level = dict.fromkeys(dag.successors, 1)
    for node in dag.topological_order():
        for later in dag.successors[node]:
            level[later] = max(level[later], level[node] + 1)
    return max(level.values(), default=0)


def front_layer_scan(dag: DependencyDAG, consumed: Iterable[int]) -> list[int]:
    """The mapper's original per-layer front: rescan every pattern node for
    an unconsumed one whose predecessors are all consumed, sorted."""
    done = set(consumed)
    return sorted(
        node
        for node in dag.pattern.nodes
        if node not in done and dag_predecessors(dag, node) <= done
    )


def placement_cell_scan(
    grid: LayerGrid,
    anchors: list[Coord2D],
    all_homes: set[Coord2D],
    neighbor_homes: set[Coord2D],
) -> Coord2D | None:
    """The mapper's original placement choice: sort every free cell by total
    Manhattan distance to ``anchors`` (stably, so row-major breaks ties),
    then take the first that is nobody's home, else the first that is no
    mapped neighbour's home, else the first."""
    free = [
        (row, col)
        for row in range(grid.width)
        for col in range(grid.width)
        if grid.is_free((row, col))
    ]
    by_distance = sorted(
        free,
        key=lambda c: sum(abs(c[0] - a[0]) + abs(c[1] - a[1]) for a in anchors),
    )
    cell = next((c for c in by_distance if c not in all_homes), None)
    if cell is None:
        cell = next((c for c in by_distance if c not in neighbor_homes), None)
    if cell is None and by_distance:
        cell = by_distance[0]
    return cell


def relocation_cell_scan(
    grid: LayerGrid, home: Coord2D, other_homes: set[Coord2D]
) -> Coord2D | None:
    """The mapper's original relocation target: the first free cell, sorted
    stably by distance to ``home``, that is neither ``home`` nor another
    stored node's home."""
    free = [
        (row, col)
        for row in range(grid.width)
        for col in range(grid.width)
        if grid.is_free((row, col))
    ]
    by_distance = sorted(free, key=lambda c: abs(c[0] - home[0]) + abs(c[1] - home[1]))
    return next(
        (c for c in by_distance if c != home and c not in other_homes), None
    )



def route_scan(grid: LayerGrid, start: Coord2D, goal: Coord2D) -> list[Coord2D] | None:
    """The router before layers kept flat occupancy: a deque BFS over
    ``(row, col)`` tuples, with a tuple-keyed neighbour table, seen set and
    parent map.  Same contract as ``repro.offline.routing.route``."""
    if abs(start[0] - goal[0]) + abs(start[1] - goal[1]) == 1:
        return []
    table = {cell: tuple(grid_neighbors4(cell, grid.width)) for cell in iter_grid(grid.width)}
    occupied = {cell for cell in table if not grid.is_free(cell)}
    parents: dict[Coord2D, Coord2D] = {}
    seen = {start}
    queue: deque[Coord2D] = deque([start])
    while queue:
        current = queue.popleft()
        for neighbor in table[current]:
            if neighbor == goal and current != start:
                path = [current]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                path.reverse()
                return path[1:] if path and path[0] == start else path
            if neighbor in seen or neighbor in occupied:
                continue
            seen.add(neighbor)
            parents[neighbor] = current
            queue.append(neighbor)
    return None


def lower_ir_scan(ir: FlexLatticeIR) -> list[Instruction]:
    """``lower_ir`` before it grouped the IR by layer: every layer re-sorts
    all spatial edges and rescans all nodes.  Same stream, quadratic in the
    layer count."""
    program: list[Instruction] = []
    stores: dict[int, list[Coord3D]] = {}
    transit_retrieves: dict[int, list[tuple[Coord3D, Coord3D]]] = {}
    landings: dict[int, list[tuple[Coord3D, Coord3D]]] = {}
    direct_enables: dict[int, list[tuple[Coord3D, Coord3D]]] = {}

    for earlier, later in ir.temporal_edges():
        later_node = ir.node_at(later)
        if later_node.role == ROLE_WORLDLINE:
            stores.setdefault(earlier[2], []).append(earlier)
        elif later[2] == earlier[2] + 1:
            direct_enables.setdefault(later[2], []).append((earlier, later))
        else:
            stores.setdefault(earlier[2], []).append(earlier)
            waypoint = (later[0], later[1], later[2] - 1)
            transit_retrieves.setdefault(later[2] - 1, []).append((earlier, waypoint))
            landings.setdefault(later[2], []).append((waypoint, later))

    for layer in range(ir.layer_count):
        for node in ir.layer_nodes(layer):
            if node.role == ROLE_GRAPH:
                program.append(MapVNode(v_node=node.coord, g_node=node.g_node))
            elif node.role == ROLE_WORLDLINE:
                if node.temporal_prev is None:
                    program.append(MakeVNodeAncilla(v_node=node.coord))
                else:
                    program.append(
                        RetrieveVNode(v_node=node.temporal_prev, position=node.coord)
                    )
            else:
                program.append(MakeVNodeAncilla(v_node=node.coord))
        for waypoint, later in landings.get(layer, ()):
            program.append(
                EnableTemporalVEdge(v_node=waypoint, adjacent_v_node=later)
            )
        for earlier, later in direct_enables.get(layer, ()):
            program.append(
                EnableTemporalVEdge(v_node=earlier, adjacent_v_node=later)
            )
        for key in sorted(ir.spatial_edges, key=sorted):
            a, b = sorted(key)
            if a[2] == layer:
                program.append(EnableSpatialVEdge(v_node=a, adjacent_v_node=b))
        for earlier in stores.get(layer, ()):
            program.append(StoreVNode(v_node=earlier))
        for earlier, waypoint in transit_retrieves.get(layer, ()):
            program.append(RetrieveVNode(v_node=earlier, position=waypoint))
    return program


def render_ir_scan(ir: FlexLatticeIR, max_layers: int | None = None) -> str:
    """``viz.render_ir`` before it grouped the IR by layer: every layer
    re-sorts all temporal edges and rescans all nodes.  Same text,
    quadratic in the layer count."""
    glyph_for = {
        ROLE_GRAPH: GLYPH_GRAPH,
        ROLE_WORLDLINE: GLYPH_WORLDLINE,
        ROLE_ANCILLA: GLYPH_ANCILLA,
    }
    count = ir.layer_count if max_layers is None else min(max_layers, ir.layer_count)
    blocks = []
    for layer in range(count):
        nodes = ir.layer_nodes(layer)
        temporal_in = sum(
            1 for _earlier, later in ir.temporal_edges() if later[2] == layer
        )
        canvas = [[GLYPH_EMPTY] * ir.width for _ in range(ir.width)]
        for node in nodes:
            row, col, _layer = node.coord
            canvas[row][col] = glyph_for[node.role]
        blocks.append(
            f"layer {layer} ({len(nodes)} nodes, {temporal_in} temporal in)\n"
            + "\n".join("".join(row) for row in canvas)
        )
    if count < ir.layer_count:
        blocks.append(f"... ({ir.layer_count - count} more layers)")
    return "\n\n".join(blocks)


def unrewritten_passes() -> tuple[CompilerPass, ...]:
    """The default chain without the pattern-rewrite pass.

    On circuits the rewrite contracts nothing on (every built-in one), a
    pipeline over these passes must reproduce the default chain's results
    byte for byte.  Tests hand it to ``Pipeline(settings, passes=...)``, or
    swap it in for ``repro.pipeline.pipeline.default_passes`` so experiment
    runs build their pipelines from it.
    """
    return (TranslatePass(), OfflineMapPass(), OnlineReshapePass())


#: Keep exact layers small: every qubit is a real graph node.
MAX_EXACT_SIDE = 16


@dataclass
class ExactSite:
    """One lattice site assembled from merged stars."""

    coord: Coord2D
    root: object | None  # None if the site died during merging
    free_leaves: list = field(default_factory=list)
    lc_cleanups: int = 0


@dataclass
class ExactLayer:
    """A fully materialized physical layer."""

    graph: GraphState
    sites: dict[Coord2D, ExactSite]
    ledger: LocalOpLedger
    bonds: dict[frozenset[Coord2D], bool]
    fusions_attempted: int

    def site_alive(self, coord: Coord2D) -> bool:
        return self.sites[coord].root is not None

    def roots_connected(self, a: Coord2D, b: Coord2D) -> bool:
        """Whether the two sites' roots share an edge in the real state."""
        site_a, site_b = self.sites[a], self.sites[b]
        if site_a.root is None or site_b.root is None:
            return False
        return self.graph.has_edge(site_a.root, site_b.root)


def _merge_site(
    graph: GraphState,
    stars: list[ResourceStateInstance],
    device: FusionDevice,
    ledger: LocalOpLedger,
) -> tuple[object | None, list, int, int]:
    """Chain ``stars`` into one big star with root-leaf fusions.

    Returns (root, free leaves, fusions attempted, LC cleanups).  On a
    failed root-leaf fusion the joiner's orphaned clique (Fig. 8) is
    restored to a star by local complementation on one of its members, with
    the operators recorded in the ledger, and the merge retries while leaves
    remain on both sides.
    """
    accumulated = stars[0]
    root = accumulated.root
    leaves = list(accumulated.leaves)
    attempted = 0
    cleanups = 0
    for joiner in stars[1:]:
        joiner_leaves = list(joiner.leaves)
        joined = False
        while leaves and joiner_leaves:
            leaf = leaves.pop()
            attempted += 1
            success = device.attempt("root-leaf")
            apply_fusion(graph, leaf, joiner.root, success)
            if success:
                # The joiner's leaves now hang off our root.
                leaves.extend(joiner_leaves)
                joined = True
                break
            # Failure: our leaf burned trivially (degree 1); the joiner's
            # root vanished after an LC, leaving its leaves fully connected
            # (Fig. 8's B).  Restore a star by LC at one surviving member
            # and record the postponed operators.
            survivor = joiner_leaves.pop()
            if joiner_leaves:
                ledger.record_local_complement(
                    survivor, graph.neighbors(survivor)
                )
                local_complement(graph, survivor)
                cleanups += 1
                # survivor is now the root of a (smaller) star; use it as
                # the joiner root for the retry.
                joiner = ResourceStateInstance(root=survivor, leaves=joiner_leaves)
            else:
                break  # joiner exhausted
        if not joined and not leaves:
            return None, [], attempted, cleanups
    return root, leaves, attempted, cleanups


def build_exact_layer(
    config: HardwareConfig,
    device: FusionDevice | None = None,
    rng=None,
) -> ExactLayer:
    """Materialize one merged layer of ``config`` as a real graph state.

    Performs the same semi-static strategy as
    :func:`repro.online.fusion_strategy.form_layer` — merge stars per site,
    then leaf-leaf fuse right/down neighbours — but on actual qubits, so
    every heralded outcome corresponds to a graph rewrite.
    """
    n = config.rsl_size
    if n > MAX_EXACT_SIDE:
        raise HardwareError(
            f"exact layers are capped at {MAX_EXACT_SIDE}x{MAX_EXACT_SIDE} "
            f"(got {n}); use the percolation abstraction at scale"
        )
    if device is None:
        device = FusionDevice(config.effective_fusion_rate, rng)
    graph = GraphState()
    ledger = LocalOpLedger()
    spec: ResourceStateSpec = config.resource_state
    merge_count = config.merged_rsls_per_layer
    sites: dict[Coord2D, ExactSite] = {}
    attempted = 0

    for row in range(n):
        for col in range(n):
            stars = [
                emit_star(graph, spec, (layer_index, row, col))
                for layer_index in range(merge_count)
            ]
            root, leaves, merge_attempts, cleanups = _merge_site(
                graph, stars, device, ledger
            )
            attempted += merge_attempts
            sites[(row, col)] = ExactSite(
                coord=(row, col),
                root=root,
                free_leaves=leaves,
                lc_cleanups=cleanups,
            )

    bonds: dict[frozenset[Coord2D], bool] = {}
    for row in range(n):
        for col in range(n):
            here = sites[(row, col)]
            for there_coord in (((row, col + 1)), ((row + 1, col))):
                if there_coord[0] >= n or there_coord[1] >= n:
                    continue
                there = sites[there_coord]
                key = frozenset(((row, col), there_coord))
                if (
                    here.root is None
                    or there.root is None
                    or not here.free_leaves
                    or not there.free_leaves
                ):
                    bonds[key] = False
                    continue
                leaf_a = here.free_leaves.pop()
                leaf_b = there.free_leaves.pop()
                attempted += 1
                success = device.attempt("leaf-leaf")
                apply_fusion(graph, leaf_a, leaf_b, success)
                bonds[key] = success
    return ExactLayer(
        graph=graph,
        sites=sites,
        ledger=ledger,
        bonds=bonds,
        fusions_attempted=attempted,
    )


def bond_consistency(layer: ExactLayer) -> float:
    """Fraction of bonds whose heralded outcome matches real connectivity.

    Should be exactly 1.0 — the test-suite asserts it — because a
    successful leaf-leaf fusion of two star leaves joins precisely their
    roots, and a failed one joins nothing.
    """
    total = 0
    agree = 0
    for key, heralded in layer.bonds.items():
        a, b = tuple(key)
        total += 1
        agree += int(layer.roots_connected(a, b) == heralded)
    return agree / total if total else 1.0
