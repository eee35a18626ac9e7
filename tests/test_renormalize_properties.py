"""Property tests of the renormalization carving invariants (every result
passes the ``check_renormalization`` certificate), the strip pre-check
against its scalar DSU oracle, the wavefront path search against the scalar
deque-BFS oracle carvers, the compiled corridor join and the flat-site
modular joins against their per-cell and coordinate oracles, scipy's BFS
kernel against its pure-python twin (also from two threads at once), the
frontier engine's fixed-stride sink accounting, the carver's per-width
frame reuse and flat-site node grid, and the on-demand node grid and
coordinate views against the eager construction they replaced."""

import importlib
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from oracles import (
    SCALAR_CARVERS,
    check_renormalization,
    coordinate_intersections,
    corridor_connected_scalar,
    flat_sites,
    frontier_bfs_python,
    grid_path,
    modular_renormalize_coordinates,
    renormalize_scalar,
    strip_spans,
    strip_spans_dsu,
)

from repro.circuits import make_benchmark
from repro.errors import RenormalizationError
from repro.online import PercolatedLattice, percolation, sample_lattice
from repro.online.modular import _corridor_connected, _module_lattice, modular_renormalize
from repro.online.renormalize import _intersections
from repro.pipeline import Pipeline, PipelineSettings

# ``repro.online`` re-exports the ``renormalize`` function under the
# submodule's name, so the modules are fetched by their full names.
renormalize_module = importlib.import_module("repro.online.renormalize")
modular_module = importlib.import_module("repro.online.modular")


def renormalize(lattice, target, work_budget=None):
    """The product ``renormalize``, its result checked by the certificate."""
    result = renormalize_module.renormalize(lattice, target, work_budget)
    check_renormalization(lattice, result)
    return result


@st.composite
def carving_cases(draw):
    size = draw(st.integers(8, 28))
    target = draw(st.integers(1, max(1, size // 6)))
    probability = draw(st.sampled_from([0.6, 0.72, 0.85, 1.0]))
    seed = draw(st.integers(0, 2**31 - 1))
    return size, target, probability, seed


@given(carving_cases())
@settings(max_examples=40, deadline=None)
def test_same_orientation_paths_are_disjoint(case):
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)
    for paths in (result.vertical_paths, result.horizontal_paths):
        seen: set = set()
        for path in paths:
            assert not (seen & set(path)), "parallel paths must not share sites"
            seen |= set(path)


@given(carving_cases())
@settings(max_examples=40, deadline=None)
def test_paths_are_connected_walks(case):
    size, target, probability, seed = case
    snapshot = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(snapshot.copy(), target)
    for path in result.vertical_paths + result.horizontal_paths:
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert snapshot.has_bond(a, b)


@given(carving_cases())
@settings(max_examples=40, deadline=None)
def test_success_implies_complete_node_grid(case):
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)
    if result.success:
        assert len(result.node_sites) == target * target
        assert len(result.vertical_paths) == target
        assert len(result.horizontal_paths) == target
        for (v_index, h_index), coord in result.node_sites.items():
            assert coord in result.vertical_paths[v_index]
            assert coord in result.horizontal_paths[h_index]
    else:
        assert result.lattice_size < target


@given(carving_cases())
@settings(max_examples=30, deadline=None)
def test_paths_confined_to_their_strips(case):
    """Strip confinement is the tangling guard: every vertical path stays in
    its column strip, every horizontal path in its row band."""
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)

    def strip_range(index: int) -> tuple[int, int]:
        return (index * size) // target, ((index + 1) * size) // target

    for index, path in enumerate(result.vertical_paths):
        low, high = strip_range(index)
        assert all(low <= col < high for _row, col in path)
    for index, path in enumerate(result.horizontal_paths):
        low, high = strip_range(index)
        assert all(low <= row < high for row, _col in path)


@st.composite
def strip_cases(draw):
    """Randomized lattices with site loss, plus a strip partition to check.

    Loss rate 0 exercises full lattices; rates near 1 produce effectively
    empty strips; tiny sizes produce width-1 and single-row degenerates.
    """
    size = draw(st.integers(1, 26))
    bond_probability = draw(st.floats(0.0, 1.0))
    loss = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 0.97]))
    count = draw(st.integers(1, size))
    seed = draw(st.integers(0, 2**31 - 1))
    return size, bond_probability, loss, count, seed


def _lattice_with_loss(size, bond_probability, loss, seed):
    rng = np.random.default_rng(seed)
    alive = rng.random((size, size)) >= loss
    return sample_lattice(size, bond_probability, rng, site_alive=alive)


def _product_strip_spans(lattice, vertical, low, high):
    """The carver's strip check: ``grid_spans_from_usable`` on its own views."""
    sites, across, along, _owner = renormalize_module._Carver(lattice)._views[vertical]
    return percolation.grid_spans_from_usable(
        sites[:, low:high], across[:, low : high - 1], along[:, low:high]
    )


@given(strip_cases())
@settings(max_examples=60, deadline=None)
def test_vectorized_precheck_matches_dsu_oracle(case):
    """The product's strip check (``grid_spans_from_usable`` on the carver's
    usable-bond views), the oracle's raw-bond ``strip_spans`` and the scalar
    union-find must answer identically for every strip/band of every
    lattice."""
    size, bond_probability, loss, count, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    for vertical in (True, False):
        for index in range(count):
            low = (index * size) // count
            high = ((index + 1) * size) // count
            expected = strip_spans_dsu(lattice, vertical, low, high)
            assert _product_strip_spans(lattice, vertical, low, high) == expected, (
                size, vertical, low, high
            )
            assert strip_spans(lattice, vertical, low, high) == expected


def test_precheck_degenerate_strips():
    """Hand-picked degenerates: empty width, fully dead, fully alive."""
    full = sample_lattice(6, 1.0, rng=np.random.default_rng(0))
    for vertical in (True, False):
        assert strip_spans(full, vertical, 0, 6) is True
        assert strip_spans(full, vertical, 2, 3) is True  # width-1 strip
        # Empty range: both implementations report "no path".
        assert strip_spans(full, vertical, 3, 3) is False
        assert strip_spans_dsu(full, vertical, 3, 3) is False
    dead = sample_lattice(
        5, 1.0, rng=np.random.default_rng(0), site_alive=np.zeros((5, 5), dtype=bool)
    )
    for vertical in (True, False):
        assert strip_spans(dead, vertical, 0, 5) is False
        assert strip_spans_dsu(dead, vertical, 0, 5) is False
    single = sample_lattice(1, 0.5, rng=np.random.default_rng(1))
    assert strip_spans(single, True, 0, 1) is strip_spans_dsu(single, True, 0, 1) is True


@given(carving_cases())
@settings(max_examples=25, deadline=None)
def test_full_renormalize_identical_for_either_precheck(case):
    """The scalar oracle behind either strip pre-check must not differ from
    the product in *anything*: success, paths, node grid, and the Fig. 14
    visited-sites cost proxy."""
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    fast = renormalize(lattice.copy(), target)
    for carver in SCALAR_CARVERS:
        slow = renormalize_scalar(lattice.copy(), target, carver=carver)
        assert fast.success == slow.success
        assert fast.lattice_size == slow.lattice_size
        assert fast.visited_sites == slow.visited_sites
        assert fast.node_sites == slow.node_sites
        assert fast.vertical_paths == slow.vertical_paths
        assert fast.horizontal_paths == slow.horizontal_paths


def _result_tuple(result):
    """The full deterministic portion of a RenormalizationResult."""
    return (
        result.success,
        result.target_size,
        result.lattice_size,
        result.visited_sites,
        result.node_sites,
        result.vertical_paths,
        result.horizontal_paths,
    )


_BFS_MODULES = (percolation, renormalize_module, modular_module)


@contextmanager
def _engine(name):
    """Run the body on scipy ("scipy") or on the pure-python twin ("python"),
    bound in place of every module's ``frontier_bfs``."""
    originals = [module.frontier_bfs for module in _BFS_MODULES]
    if name == "python":
        for module in _BFS_MODULES:
            module.frontier_bfs = frontier_bfs_python
    try:
        yield
    finally:
        for module, original in zip(_BFS_MODULES, originals):
            module.frontier_bfs = original


@st.composite
def pathfind_cases(draw):
    """Randomized lattices (with loss), targets, and work budgets.

    Sizes start at 1 to cover the degenerate single-row/owned-lane start
    branches; the optional budget exercises mid-carve truncation, whose
    cut point depends on exact visited-site accounting.
    """
    size = draw(st.integers(1, 24))
    target = draw(st.integers(1, size))
    bond_probability = draw(st.sampled_from([0.5, 0.6, 0.72, 0.85, 1.0]))
    loss = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))
    budget = draw(st.one_of(st.none(), st.integers(1, 4 * size * size)))
    seed = draw(st.integers(0, 2**31 - 1))
    return size, target, bond_probability, loss, budget, seed


@given(pathfind_cases())
@settings(max_examples=50, deadline=None)
def test_pathfind_precheck_sweep_full_result_identity(case):
    """The product and the scalar deque-BFS oracle behind either strip
    pre-check must agree on *everything*: success, paths, node grid,
    visited-site count, and where a work budget truncates the carve."""
    size, target, bond_probability, loss, budget, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    reference = _result_tuple(renormalize(lattice.copy(), target, work_budget=budget))
    for carver in SCALAR_CARVERS:
        result = renormalize_scalar(lattice.copy(), target, work_budget=budget, carver=carver)
        assert _result_tuple(result) == reference, carver.__name__


@given(pathfind_cases())
@settings(max_examples=20, deadline=None)
def test_pure_python_frontier_engine_is_identical(case):
    """Bound in place of scipy's BFS everywhere, the pure-python twin must
    reproduce the product's results byte-for-byte: the tie-break contract
    on the move tables and pre-check graphs ``renormalize`` builds."""
    size, target, bond_probability, loss, budget, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    compiled = renormalize(lattice.copy(), target, work_budget=budget)
    with _engine("python"):
        fallback = renormalize(lattice.copy(), target, work_budget=budget)
    assert _result_tuple(fallback) == _result_tuple(compiled)


@contextmanager
def _recorded_bfs(module):
    """Record every ``(indptr, order, predecessors)`` ``module`` traverses."""
    calls = []
    original = module.frontier_bfs

    def recording(indptr, indices, source):
        order, predecessors = original(indptr, indices, source)
        calls.append((indptr, order, predecessors))
        return order, predecessors

    module.frontier_bfs = recording
    try:
        yield calls
    finally:
        module.frontier_bfs = original


def _sink_position(indptr, order):
    """Pop index of a fixed-stride graph's sink node, or None if unreached."""
    sink = indptr.shape[0] - 2
    hits = np.flatnonzero(order == sink)
    return int(hits[0]) if hits.size else None


def _three_by_three(horizontal):
    """A 3x3 lattice whose only vertical bonds run down the middle column.

    With ``target_size=1`` the vertical search claims that column as its
    path after 5 pops; the horizontal search must then cross it straight
    through, which ``horizontal`` (row-major ``(r, c)-(r, c+1)`` bonds)
    decides.
    """
    return PercolatedLattice(
        sites=np.ones((3, 3), dtype=bool),
        horizontal=np.array(horizontal, dtype=bool),
        vertical=np.array([[0, 1, 0], [0, 1, 0]], dtype=bool),
    )


def _assert_pathfinds_agree_at_every_budget(lattice, visited):
    """The product == the scalar oracle under both pre-checks, unbudgeted
    and with a work budget placed at, just below and just above every query
    boundary."""
    for budget in [None, *range(visited + 2)]:
        expected = _result_tuple(renormalize(lattice.copy(), 1, work_budget=budget))
        for carver in SCALAR_CARVERS:
            result = renormalize_scalar(lattice.copy(), 1, work_budget=budget, carver=carver)
            assert _result_tuple(result) == expected, (budget, carver.__name__)


def test_failed_search_on_non_spanning_strip_charges_the_area_only():
    """The band's relaxed graph reaches the middle column but never the far
    edge, so the pre-check after the failed search says no: the horizontal
    query costs its strip area and nothing more."""
    lattice = _three_by_three([[1, 0], [0, 0], [0, 0]])
    assert not _product_strip_spans(lattice, False, 0, 3)
    result = renormalize(lattice.copy(), 1)
    assert not result.success
    assert result.vertical_paths == [[(0, 1), (1, 1), (2, 1)]]
    assert result.horizontal_paths == []
    assert result.visited_sites == (9 + 5) + 9
    _assert_pathfinds_agree_at_every_budget(lattice, result.visited_sites)


def test_failed_search_on_spanning_strip_charges_the_pops():
    """The band's relaxed graph spans only by travelling along the claimed
    vertical path, which the crossing rules forbid: the search fails after
    popping its 3 start cells, the pre-check says yes, and those pops are
    charged on top of the strip area.  The failed search also pops the
    sink (the start cells' missing moves point there), which is not
    charged."""
    lattice = _three_by_three([[1, 0], [0, 0], [0, 1]])
    assert _product_strip_spans(lattice, False, 0, 3)
    with _recorded_bfs(renormalize_module) as calls:
        result = renormalize(lattice.copy(), 1)
    indptr, order, predecessors = calls[1]
    assert _sink_position(indptr, order) is not None
    assert predecessors[indptr.shape[0] - 2] != percolation.NO_PREDECESSOR
    assert len(order) == 1 + 3 + 1  # super-source, three cells, sink
    assert not result.success
    assert result.vertical_paths == [[(0, 1), (1, 1), (2, 1)]]
    assert result.horizontal_paths == []
    assert result.visited_sites == (9 + 5) + (9 + 3)
    _assert_pathfinds_agree_at_every_budget(lattice, result.visited_sites)


def test_sink_pops_before_the_goal():
    """On a full 3x3 lattice the first popped start cell's "up" slot is
    the sink, which therefore pops ahead of the goal row; the vector
    search must not count that pop."""
    lattice = sample_lattice(3, 1.0, rng=np.random.default_rng(0))
    with _recorded_bfs(renormalize_module) as calls:
        result = renormalize(lattice.copy(), 1)
    assert result.success
    indptr, order, _ = calls[0]
    sink = _sink_position(indptr, order)
    goal = int(np.flatnonzero((order >= 6) & (order < 9))[0])
    assert sink is not None and sink < goal
    _assert_pathfinds_agree_at_every_budget(lattice, result.visited_sites)


def test_goal_pops_before_the_sink():
    """On a 2x2 lattice whose vertical path takes column 0, the horizontal
    search enters one column inward straight onto the goal column: the
    goal is the first pop, ahead of any sink."""
    lattice = PercolatedLattice(
        sites=np.ones((2, 2), dtype=bool),
        horizontal=np.array([[1], [0]], dtype=bool),
        vertical=np.array([[1, 0]], dtype=bool),
    )
    with _recorded_bfs(renormalize_module) as calls:
        result = renormalize(lattice.copy(), 1)
    assert result.success
    assert result.horizontal_paths == [[(0, 0), (0, 1)]]
    indptr, order, _ = calls[1]
    sink = _sink_position(indptr, order)
    assert order[1] == 2  # view cell span 1, lane 0 = (0, 1): the goal
    assert sink == 2  # lane 1 has no start: its slot is the sink
    _assert_pathfinds_agree_at_every_budget(lattice, result.visited_sites)


def _random_simple_path(rng, size):
    """A self-avoiding walk over grid adjacency (bonds ignored)."""
    cell = (int(rng.integers(size)), int(rng.integers(size)))
    path, seen = [cell], {cell}
    for _ in range(int(rng.integers(0, 3 * size))):
        row, col = path[-1]
        options = [
            step
            for step in ((row + 1, col), (row - 1, col), (row, col + 1), (row, col - 1))
            if 0 <= step[0] < size and 0 <= step[1] < size and step not in seen
        ]
        if not options:
            break
        step = options[int(rng.integers(len(options)))]
        path.append(step)
        seen.add(step)
    return path


def _rows_cols(coords):
    """Coordinates (a path or a set) as the ``(rows, cols)`` arrays the
    product's corridor join takes."""
    rows, cols = np.array(list(coords), dtype=np.int64).reshape(-1, 2).T
    return rows, cols


def _as_arrays(args):
    """Corridor-join arguments with the coordinate paths as row/col arrays."""
    lattice, sources, targets, rows, cols = args
    return lattice, _rows_cols(sources), _rows_cols(targets), rows, cols


@st.composite
def corridor_cases(draw):
    """Lossy lattices, two random simple paths, and a window that may run
    past the lattice edge on any side (or be empty)."""
    size = draw(st.integers(1, 24))
    bond_probability = draw(st.sampled_from([0.4, 0.6, 0.75, 0.9, 1.0]))
    loss = draw(st.sampled_from([0.0, 0.05, 0.3]))
    seed = draw(st.integers(0, 2**31 - 1))
    window = []
    for _axis in range(2):
        low = draw(st.integers(-3, size // 2))
        window.append((low, draw(st.integers(low - 1, size + 3))))
    return size, bond_probability, loss, seed, window


@pytest.mark.parametrize("engine", ["scipy", "python"])
@given(case=corridor_cases())
@settings(max_examples=100, deadline=None)
def test_corridor_join_matches_scalar_oracle(engine, case):
    """The compiled corridor join must report the per-cell BFS's (reached,
    visited) exactly — on scipy and on its pure-python twin."""
    size, bond_probability, loss, seed, (rows, cols) = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    rng = np.random.default_rng(seed)
    sources = _random_simple_path(rng, size)
    targets = set(_random_simple_path(rng, size))
    expected = corridor_connected_scalar(lattice, sources, targets, rows, cols)
    with _engine(engine):
        actual = _corridor_connected(
            lattice, _rows_cols(sources), _rows_cols(targets), rows, cols
        )
    assert actual == expected


@pytest.mark.parametrize("engine", ["scipy", "python"])
def test_corridor_join_pops_in_neighbor_order(engine):
    """From the centre of a full 3x3 lattice the pops go right, left, down,
    up — ``PercolatedLattice.neighbors`` order — so each neighbour as the
    lone target is reached at its own visited count."""
    lattice = sample_lattice(3, 1.0, rng=np.random.default_rng(0))
    expected = {(1, 2): 2, (1, 0): 3, (2, 1): 4, (0, 1): 5}
    with _engine(engine):
        for target, visited in expected.items():
            args = (lattice, [(1, 1)], {target}, (0, 3), (0, 3))
            assert _corridor_connected(*_as_arrays(args)) == (True, visited)
            assert corridor_connected_scalar(*args) == (True, visited)


@given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_frontier_bfs_engines_agree_on_random_graphs(seed, nodes, degree):
    """scipy's breadth-first kernel (through ``frontier_bfs``) and the
    pure-python oracle twin must emit the same pop order and the same
    first-discoverer predecessors — the tie-break contract the path
    search's byte-identity rests on."""
    rng = np.random.default_rng(seed)
    edge_count = int(degree * nodes)
    sources = rng.integers(0, nodes, edge_count)
    targets = rng.integers(0, nodes, edge_count)
    indptr, indices = percolation.frontier_adjacency(sources, targets, nodes)
    source = int(rng.integers(0, nodes))
    python_order, python_pred = frontier_bfs_python(indptr, indices, source)
    order, pred = percolation.frontier_bfs(indptr, indices, source)
    assert np.array_equal(order, python_order)
    assert np.array_equal(pred, python_pred)


def _random_frontier_graph(seed, nodes, edges):
    """A random directed CSR graph and a source node, from one seed."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, nodes, edges)
    targets = rng.integers(0, nodes, edges)
    indptr, indices = percolation.frontier_adjacency(sources, targets, nodes)
    return indptr, indices, int(rng.integers(0, nodes))


def _assert_bfs_matches_python(graph):
    indptr, indices, source = graph
    expected = frontier_bfs_python(indptr, indices, source)
    actual = percolation.frontier_bfs(indptr, indices, source)
    assert np.array_equal(actual[0], expected[0])
    assert np.array_equal(actual[1], expected[1])


def test_frontier_bfs_reuses_graphs_across_edge_counts():
    """Back-to-back traversals of graphs with one node count but different
    edge counts must each see only their own edges."""
    graphs = [
        _random_frontier_graph(seed, 50, edges)
        for seed, edges in ((1, 40), (2, 160), (3, 0), (4, 90), (5, 160))
    ]
    for _round in range(3):
        for graph in graphs:
            _assert_bfs_matches_python(graph)


def test_frontier_bfs_rejects_arrays_it_would_have_to_convert():
    """``frontier_bfs`` hands its arrays to the compiled kernel unconverted,
    so an ``int64`` ``indices`` beside the ``int32`` ``indptr``, or a
    strided ``indptr``, must raise instead of being traversed."""
    indptr, indices, source = _random_frontier_graph(7, 30, 60)
    assert indptr.dtype == indices.dtype == np.int32
    with pytest.raises(ValueError):
        percolation.frontier_bfs(indptr, indices.astype(np.int64), source)
    strided = np.repeat(indptr, 2)[::2]
    assert np.array_equal(strided, indptr) and not strided.flags.c_contiguous
    with pytest.raises(ValueError):
        percolation.frontier_bfs(strided, indices, source)


def test_frontier_bfs_graph_reuse_is_per_thread():
    """Two threads traverse different graphs of one node count 3,000 times
    each with a tiny switch interval; any buffer shared between the
    threads would hand one thread the other's pops mid-call."""
    calls = 3000
    graphs = [_random_frontier_graph(seed, 64, 150) for seed in (11, 12)]
    expected = [frontier_bfs_python(*graph) for graph in graphs]
    assert not np.array_equal(expected[0][0], expected[1][0])
    mismatches = [0, 0]
    done = [0, 0]

    def worker(slot):
        indptr, indices, source = graphs[slot]
        order_ref, pred_ref = expected[slot]
        for _ in range(calls):
            order, pred = percolation.frontier_bfs(indptr, indices, source)
            if not (np.array_equal(order, order_ref) and np.array_equal(pred, pred_ref)):
                mismatches[slot] += 1
            done[slot] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [calls, calls]
    assert mismatches == [0, 0]


@given(
    st.integers(0, 2**31 - 1),
    st.lists(st.tuples(st.integers(1, 80), st.integers(0, 240)), min_size=2, max_size=2),
)
@settings(max_examples=10, deadline=None)
def test_frontier_bfs_from_two_threads_matches_python_twin(seed, shapes):
    """Two threads start together and traverse their own random graphs 200
    times each, with a tiny switch interval: every call must match the
    pure-python twin, so the per-call output buffers share no state."""
    graphs = [
        _random_frontier_graph(seed + slot, nodes, edges)
        for slot, (nodes, edges) in enumerate(shapes)
    ]
    expected = [frontier_bfs_python(*graph) for graph in graphs]
    start = threading.Barrier(2)
    mismatches = [0, 0]

    def worker(slot):
        indptr, indices, source = graphs[slot]
        order_ref, pred_ref = expected[slot]
        start.wait()
        for _ in range(200):
            order, pred = percolation.frontier_bfs(indptr, indices, source)
            if not (np.array_equal(order, order_ref) and np.array_equal(pred, pred_ref)):
                mismatches[slot] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [0, 0]


@pytest.mark.parametrize("engine", ["scipy", "python"])
@pytest.mark.parametrize(
    "targets, reached",
    [({(2, 2)}, True), ({(0, 2)}, False)],
)
def test_corridor_join_through_the_sink(engine, targets, reached):
    """A window with missing bonds routes slots to the sink, which pops
    before the target (or among a failed join's pops); the join's counts
    must still equal the per-cell BFS's."""
    lattice = PercolatedLattice(
        sites=np.ones((3, 3), dtype=bool),
        horizontal=np.array([[0, 0], [1, 0], [0, 1]], dtype=bool),
        vertical=np.array([[0, 0, 0], [0, 1, 0]], dtype=bool),
    )
    args = (lattice, [(1, 0)], targets, (0, 3), (0, 3))
    with _engine(engine), _recorded_bfs(modular_module) as calls:
        actual = _corridor_connected(*_as_arrays(args))
    assert actual == corridor_connected_scalar(*args)
    assert actual[0] is reached
    indptr, order, _ = calls[0]
    sink = _sink_position(indptr, order)
    assert sink is not None
    if reached:
        assert sink < int(np.flatnonzero(order == 8)[0])


def _node_coordinates(nodes, size):
    """A flat-site node dict as coordinates, in the same key order."""
    return {key: divmod(site, size) for key, site in nodes.items()}


@given(carving_cases())
@settings(max_examples=25, deadline=None)
def test_intersections_map_matches_quadratic_reference(case):
    """The flat-site intersection map must pin the exact node_sites of the
    coordinate rescan oracle — values *and* insertion order."""
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)
    expected = coordinate_intersections(result.vertical_paths, result.horizontal_paths)
    if not result.horizontal_sites:
        assert expected == {}
        return
    actual = _node_coordinates(
        _intersections(size, result.vertical_sites, result.horizontal_sites), size
    )
    assert actual == expected
    assert list(actual) == list(expected)


def test_intersections_first_site_along_horizontal_path():
    """"First shared site" means first along the *horizontal* path, even
    when that path walks high-index verticals before low-index ones."""
    v0 = [(0, 1), (1, 1), (2, 1)]
    v1 = [(0, 3), (1, 3), (2, 3)]
    h0 = [(1, 4), (1, 3), (1, 2), (1, 1)]  # meets v1 before v0
    size = 5
    nodes = _intersections(
        size, [flat_sites(v0, size), flat_sites(v1, size)], [flat_sites(h0, size)]
    )
    assert _node_coordinates(nodes, size) == {(0, 0): (1, 1), (1, 0): (1, 3)}
    assert list(nodes) == [(0, 0), (1, 0)]


@given(carving_cases())
@settings(max_examples=30, deadline=None)
def test_visited_work_scales_with_lattice(case):
    """The Fig. 14 cost proxy is positive and bounded by a small multiple of
    the lattice area (the O(N^2) claim of Section 5.1)."""
    size, target, probability, seed = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = renormalize(lattice, target)
    assert result.visited_sites > 0
    assert result.visited_sites <= 6 * size * size * max(1, target)


def _strip_widths(size, count):
    carver = renormalize_module._Carver(_full_lattice(size))
    ranges = [carver._strip_range(index, count) for index in range(count)]
    return [high - low for low, high in ranges]


def _full_lattice(size):
    return PercolatedLattice(
        sites=np.ones((size, size), dtype=bool),
        horizontal=np.ones((size, size - 1), dtype=bool),
        vertical=np.ones((size - 1, size), dtype=bool),
    )


def _assert_vector_matches_scalar(lattice, target):
    vector = renormalize(lattice.copy(), target)
    scalar = renormalize_scalar(lattice.copy(), target)
    assert _result_tuple(vector) == _result_tuple(scalar)
    assert list(vector.node_sites) == list(scalar.node_sites)
    return vector


@pytest.mark.parametrize("seed", [None, *range(8)])
def test_frame_reuse_across_alternating_strip_widths(seed):
    """n=7, k=3 cuts strips of widths 2, 2 and 3, so one carver reuses the
    width-2 frame stack for four queries of both orientations before the
    width-3 stack is allocated; stale interiors must never leak into a
    later query's move table."""
    assert _strip_widths(7, 3) == [2, 2, 3]
    if seed is None:
        lattice = _full_lattice(7)
    else:
        lattice = _lattice_with_loss(7, 0.85, 0.05, seed)
    result = _assert_vector_matches_scalar(lattice, 3)
    if seed is None:
        assert result.success
        assert len(result.node_sites) == 9


def test_first_vertical_query_has_no_crossings_later_ones_do(monkeypatch):
    """The first vertical query sees no perpendicular-owned cell (the
    two-hop gathers are skipped); every later query on the full lattice
    has one, and crosses it.  Both kinds must match the scalar oracle."""
    owned = []
    original = renormalize_module._Carver.find_path

    def recording(carver, vertical, index, count):
        low, high = carver._strip_range(index, count)
        strip = carver.owner[:, low:high] if vertical else carver.owner[low:high, :]
        other = renormalize_module._HORIZONTAL if vertical else renormalize_module._VERTICAL
        owned.append(int((strip == other).sum()))
        return original(carver, vertical, index, count)

    lattice = _full_lattice(9)
    monkeypatch.setattr(renormalize_module._Carver, "find_path", recording)
    result = _assert_vector_matches_scalar(lattice, 3)
    assert result.success
    assert owned[0] == 0
    assert len(owned) == 6 and all(count > 0 for count in owned[1:])
    # The second horizontal path crosses the (earlier claimed) middle
    # vertical path away from both of its far edges, which only a two-hop
    # move can do.
    crossing = result.node_sites[(1, 1)]
    assert 0 < crossing[1] < lattice.size - 1


@given(pathfind_cases())
@settings(max_examples=60, deadline=None)
def test_crossings_follow_from_claimed_perpendicular_paths(case):
    """``find_path`` reads its frames off the claim state: before every
    query of a carve, "some perpendicular path is claimed" must equal "the
    strip holds a perpendicular-owned cell", and the strip must hold no
    cell of its own orientation (so an alive goal-row cell is enterable),
    on lossless and lossy lattices and work-budget cuts alike."""
    size, target, bond_probability, loss, budget, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    carver_class = renormalize_module._Carver
    original = carver_class.find_path
    queries = []

    def checking(carver, vertical, index, count):
        low, high = carver._strip_range(index, count)
        strip = carver.owner[:, low:high] if vertical else carver.owner[low:high, :]
        other = renormalize_module._HORIZONTAL if vertical else renormalize_module._VERTICAL
        own = renormalize_module._VERTICAL if vertical else renormalize_module._HORIZONTAL
        assert not (strip == own).any()
        queries.append((bool(carver.claimed[not vertical]), bool((strip == other).any())))
        return original(carver, vertical, index, count)

    carver_class.find_path = checking
    try:
        renormalize(lattice, target, work_budget=budget)
    finally:
        carver_class.find_path = original
    assert queries
    for claimed, owned in queries:
        assert claimed == owned


@given(pathfind_cases())
@settings(max_examples=60, deadline=None)
def test_node_sites_match_quadratic_reference_from_paths(case):
    """The flat-site intersection pass inside ``renormalize`` must pin the
    node grid the quadratic rescan computes from the returned coordinate
    paths — values and insertion order — on lossy lattices, partial
    carves and work-budget cuts alike."""
    size, target, bond_probability, loss, budget, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    result = renormalize(lattice, target, work_budget=budget)
    if len(result.vertical_paths) == target and len(result.horizontal_paths) == target:
        expected = coordinate_intersections(result.vertical_paths, result.horizontal_paths)
        assert result.node_sites == expected
        assert list(result.node_sites) == list(expected)
        assert all(
            type(value) is int for coord in result.node_sites.values() for value in coord
        )
    else:
        assert result.node_sites == {}


def _result_coordinates(result):
    """The eager construction the coordinate views replaced: one zip per
    path, and the node grid rescanned from those coordinate paths."""
    vertical = [grid_path(sites, result.side) for sites in result.vertical_sites]
    horizontal = [grid_path(sites, result.side) for sites in result.horizontal_sites]
    nodes = {}
    if len(vertical) == len(horizontal) == result.target_size:
        nodes = coordinate_intersections(vertical, horizontal)
    return vertical, horizontal, nodes


@given(pathfind_cases())
@settings(max_examples=50, deadline=None)
def test_coordinate_views_match_eager_construction(case):
    """``vertical_paths``, ``horizontal_paths`` and ``node_sites`` are built
    on first access from the stored flat sites; they must equal the eager
    per-path construction — python-int tuples, same dict order — on lossy
    lattices, partial carves and work-budget cuts alike."""
    size, target, bond_probability, loss, budget, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    result = renormalize(lattice, target, work_budget=budget)
    vertical, horizontal, nodes = _result_coordinates(result)
    assert result.side == size
    assert result.vertical_paths == vertical
    assert result.horizontal_paths == horizontal
    assert result.node_sites == nodes
    assert list(result.node_sites) == list(nodes)
    for paths in (result.vertical_paths, result.horizontal_paths, [result.node_sites.values()]):
        assert all(type(value) is int for path in paths for coord in path for value in coord)
    assert result.vertical_paths is result.vertical_paths  # built once


@pytest.mark.parametrize("loss", [0.0, 0.05, 0.3])
@given(pathfind_cases())
@settings(max_examples=25, deadline=None)
def test_flags_and_lazy_node_grid_match_eager_definition(loss, case):
    """``success`` and ``lattice_size`` come from the path counts, and the
    node grid is built on first read; on lossless and lossy lattices,
    partial carves and work-budget cuts they must equal the eager
    definition: a full carve succeeds iff its intersection grid is
    complete, and its size is that grid's side."""
    size, target, bond_probability, _, budget, seed = case
    lattice = _lattice_with_loss(size, bond_probability, loss, seed)
    result = renormalize(lattice, target, work_budget=budget)
    vertical, horizontal = result.vertical_sites, result.horizontal_sites
    if len(vertical) == len(horizontal) == target:
        eager = _intersections(size, vertical, horizontal)
        assert result.success == (len(eager) == target * target)
        assert result.lattice_size == int(len(eager) ** 0.5)
    else:
        eager = {}
        assert not result.success
        assert result.lattice_size == min(len(vertical), len(horizontal))
    assert result.nodes == eager
    assert list(result.nodes) == list(eager)
    assert result.nodes is result.nodes  # built once


@st.composite
def modular_cases(draw):
    size = draw(st.integers(10, 40))
    node_size = draw(st.integers(2, 6))
    modules = draw(st.sampled_from([1, 4, 9]))
    mi_ratio = draw(st.sampled_from([2, 4, 7, 14]))
    probability = draw(st.sampled_from([0.6, 0.72, 0.85, 1.0]))
    seed = draw(st.integers(0, 2**31 - 1))
    try:
        layout = modular_module.ModularLayout.fit(size, modules, mi_ratio)
    except RenormalizationError:
        assume(False)
    return size, node_size, modules, mi_ratio, probability, seed, layout


@given(modular_cases())
@settings(max_examples=40, deadline=None)
def test_modular_joins_match_coordinate_oracle(case):
    """The corridor joins on module-local flat sites, shifted by the module
    origins into row/col arrays, must survive exactly the rows and columns
    the coordinate-path joins of the oracle do, with the same work counts;
    every module result passes the certificate on its module lattice."""
    size, node_size, modules, mi_ratio, probability, seed, layout = case
    lattice = sample_lattice(size, probability, rng=np.random.default_rng(seed))
    result = modular_renormalize(lattice, node_size, modules, mi_ratio)
    expected = modular_renormalize_coordinates(lattice, node_size, modules, mi_ratio)
    assert result.layout == expected.layout == layout
    assert result.surviving_rows == expected.surviving_rows
    assert result.surviving_cols == expected.surviving_cols
    assert result.wall_visited_sites == expected.wall_visited_sites
    assert result.total_visited_sites == expected.total_visited_sites
    g = layout.modules_per_side
    assert len(result.module_results) == len(expected.module_results) == g * g
    for position, (module, reference) in enumerate(
        zip(result.module_results, expected.module_results)
    ):
        assert _result_tuple(module) == _result_tuple(reference)
        mi, mj = divmod(position, g)
        check_renormalization(_module_lattice(lattice, layout, mi, mj), module)


def test_compile_builds_no_coordinates(monkeypatch):
    """The compile path reads only success, size and visited sites: a
    qaoa-4 compile must never build a coordinate path, nor run
    ``_intersections`` for a node grid."""

    def refuse(paths, side):
        raise AssertionError("the compile path built coordinates")

    def refuse_grid(size, vertical_sites, horizontal_sites):
        raise AssertionError("the compile path built a node grid")

    circuit = make_benchmark("qaoa", 4, seed=0)
    expected = Pipeline(PipelineSettings(), seed=0).compile(circuit)
    monkeypatch.setattr(renormalize_module, "_coordinates", refuse)
    monkeypatch.setattr(renormalize_module, "_intersections", refuse_grid)
    result = Pipeline(PipelineSettings(), seed=0).compile(circuit)
    assert result.rsl_count == expected.rsl_count > 0
    assert result.fusion_count == expected.fusion_count
    carved = renormalize_module.renormalize(sample_lattice(6, 1.0, rng=0), 1)
    with pytest.raises(AssertionError, match="built coordinates"):
        carved.vertical_paths
    with pytest.raises(AssertionError, match="built a node grid"):
        carved.nodes


def test_a_path_pair_may_cross_three_times():
    """On this lossy 12x12 lattice the shortest horizontal path crosses the
    vertical one at column 8 three times, each straight through; the
    node is the first crossing along the horizontal path, and the product
    agrees with the scalar oracles and passes the certificate."""
    lattice = _lattice_with_loss(12, 0.6, 0.05, 2215)
    result = _assert_vector_matches_scalar(lattice, 1)
    assert result.success
    vertical = set(result.vertical_paths[0])
    shared = [coord for coord in result.horizontal_paths[0] if coord in vertical]
    assert shared == [(5, 8), (3, 8), (1, 8)]
    assert result.node_sites == {(0, 0): (5, 8)}
