"""Tests for the offline mapper, routing and refresh/memory accounting."""

import gc
import hashlib
import json
import pickle
import re
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import lower_ir_scan, placement_cell_scan, relocation_cell_scan, route_scan

from repro.circuits import Circuit, make_benchmark, qaoa, qft, vqe
from repro.errors import MappingError, MemoryBudgetExceeded
from repro.ir import InstructionInterpreter, lower_ir
from repro.mbqc import translate_circuit
from repro.offline import LayerGrid, OfflineMapper, route
from repro.offline.mapper import _MapperState, placement_cell, relocation_cell
from repro.passes.rewrite import RewritePass
from repro.pipeline import OfflineMapPass, Pipeline, PipelineSettings, TranslatePass
from repro.utils.gridgeom import grid_neighbors4

#: fig14's compile settings (every scale maps at ``virtual_size=2``).
FIG14_SETTINGS = PipelineSettings(
    fusion_success_rate=0.75,
    resource_state_size=7,
    rsl_size=96,
    virtual_size=2,
    max_rsl=10**5,
)


class TestLayerGrid:
    def test_occupy_and_free(self):
        grid = LayerGrid(3)
        assert grid.is_free((0, 0))
        grid.occupy((0, 0), "x")
        assert not grid.is_free((0, 0))
        grid.release((0, 0))
        assert grid.is_free((0, 0))

    def test_double_occupy_raises(self):
        grid = LayerGrid(2)
        grid.occupy((0, 0), "a")
        with pytest.raises(ValueError):
            grid.occupy((0, 0), "b")

    def test_nearest_free_prefers_close(self):
        grid = LayerGrid(3)
        cell = grid.nearest_free([(0, 0)])
        assert cell == (0, 0)
        grid.occupy((0, 0), "x")
        assert grid.nearest_free([(0, 0)]) in [(0, 1), (1, 0)]

    def test_nearest_free_no_anchor(self):
        assert LayerGrid(2).nearest_free([]) == (0, 0)

    def test_nearest_free_full_grid(self):
        grid = LayerGrid(2)
        for row in range(2):
            for col in range(2):
                grid.occupy((row, col), "x")
        assert grid.nearest_free([(0, 0)]) is None

    def test_nearest_free_tier_ranks_before_distance(self):
        grid = LayerGrid(3)
        far = (2, 2)
        cells = {(row, col) for row in range(3) for col in range(3)}
        near = cells - {far}
        # Nobody's home beats a home; a home beats a neighbour's home.
        assert grid.nearest_free([(0, 0)], near) == far
        assert grid.nearest_free([(0, 0)], cells, near) == far
        # Without neighbour homes, homes are off limits.
        assert grid.nearest_free([(0, 0)], near, None) == far
        assert grid.nearest_free([(0, 0)], cells, None) is None


@st.composite
def layer_states(draw):
    """A partly occupied layer, anchors, stored homes and the subset of
    them that belong to a node's mapped neighbours."""
    width = draw(st.integers(1, 12))
    cells = [(row, col) for row in range(width) for col in range(width)]
    grid = LayerGrid(width)
    for cell in draw(st.sets(st.sampled_from(cells))):
        grid.occupy(cell, "x")
    anchors = draw(st.lists(st.sampled_from(cells), max_size=4))
    homes = draw(st.sets(st.sampled_from(cells)))
    neighbor_homes = draw(st.sets(st.sampled_from(sorted(homes)))) if homes else set()
    return grid, anchors, homes, neighbor_homes


@given(layer_states())
@settings(max_examples=200, deadline=None)
def test_single_pass_cell_choice_matches_sorted_scan(state):
    """The one-pass chooser picks the cell the original sort-then-filter
    formulation picked, for placements and for home relocations."""
    grid, anchors, homes, neighbor_homes = state
    assert placement_cell(grid, anchors, homes, neighbor_homes) == (
        placement_cell_scan(grid, anchors, homes, neighbor_homes)
    )
    for home in homes:
        assert relocation_cell(grid, home, homes) == (
            relocation_cell_scan(grid, home, homes - {home})
        )


class TestRoute:
    def test_adjacent_endpoints_empty_wire(self):
        assert route(LayerGrid(3), (0, 0), (0, 1)) == []

    def test_straight_wire(self):
        wire = route(LayerGrid(4), (0, 0), (0, 3))
        assert wire == [(0, 1), (0, 2)]

    def test_blocked_route_detours(self):
        grid = LayerGrid(3)
        grid.occupy((0, 1), "wall")
        wire = route(grid, (0, 0), (0, 2))
        assert wire is not None
        assert (0, 1) not in wire

    def test_fully_blocked_returns_none(self):
        grid = LayerGrid(3)
        for row in range(3):
            grid.occupy((row, 1), "wall")
        assert route(grid, (0, 0), (0, 2)) is None

    def test_wire_cells_are_free_cells(self):
        grid = LayerGrid(5)
        grid.occupy((2, 2), "obstacle")
        wire = route(grid, (0, 0), (4, 4))
        for cell in wire:
            assert grid.is_free(cell)


@st.composite
def routing_layers(draw):
    """A layer of width 1-12 filled from empty to full, and two endpoints,
    each free or occupied: anywhere, adjacent, with the start boxed in, or
    on opposite sides of a fully occupied row."""
    width = draw(st.integers(1, 12))
    cells = [(row, col) for row in range(width) for col in range(width)]
    density = draw(st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    grid = LayerGrid(width)
    for cell in cells:
        if rng.random() < density:
            grid.occupy(cell, "x")
    start = draw(st.sampled_from(cells))
    shape = draw(st.sampled_from(["anywhere", "adjacent", "boxed", "walled"]))
    around = list(grid_neighbors4(start, width))
    goal = draw(st.sampled_from(around if shape == "adjacent" and around else cells))
    if shape == "boxed":
        walls = [cell for cell in around if cell != goal]
    elif shape == "walled":
        row = draw(st.integers(0, width - 1))
        walls = [(row, col) for col in range(width) if (row, col) not in (start, goal)]
    else:
        walls = []
    for cell in walls:
        if grid.is_free(cell):
            grid.occupy(cell, "wall")
    for end in (start, goal):
        if grid.is_free(end) and draw(st.booleans()):
            grid.occupy(end, "end")
    return grid, start, goal


@given(routing_layers())
@settings(max_examples=400, deadline=None)
def test_flat_router_matches_deque_scan(layer):
    """The flat-index BFS returns the deque BFS's wire, or ``None``, with
    the same tie-break among shortest wires."""
    grid, start, goal = layer
    wire = route(grid, start, goal)
    assert wire == route_scan(grid, start, goal)
    if wire:
        assert all(grid.is_free(cell) for cell in wire)
        chain = [start, *wire, goal]
        assert all(
            abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 for a, b in zip(chain, chain[1:])
        )


class TestOfflineMapper:
    def test_parameter_validation(self):
        with pytest.raises(MappingError):
            OfflineMapper(width=1)
        with pytest.raises(MappingError):
            OfflineMapper(width=3, occupancy_limit=0.0)
        with pytest.raises(MappingError):
            OfflineMapper(width=3, refresh_every=0)

    @pytest.mark.parametrize(
        "circuit,width",
        [
            (qaoa(4, seed=1), 2),
            (qft(4), 2),
            (vqe(4, seed=1), 2),
            (make_benchmark("rca", 4), 2),
            (qaoa(9, seed=1), 3),
            (vqe(9, seed=1), 3),
        ],
        ids=["qaoa4", "qft4", "vqe4", "rca4", "qaoa9", "vqe9"],
    )
    def test_mapping_realizes_exact_edge_set(self, circuit, width):
        """The IR's wires realize exactly the program graph state's edges."""
        pattern = translate_circuit(circuit)
        result = OfflineMapper(width=width).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.ir.connected_graph_pairs() == expected
        result.ir.validate()

    def test_every_program_node_mapped_once(self):
        pattern = translate_circuit(qaoa(4, seed=2))
        result = OfflineMapper(width=2).map_pattern(pattern)
        placed = result.ir.graph_nodes()
        assert set(placed) == set(pattern.nodes)

    def test_instruction_round_trip(self):
        pattern = translate_circuit(qft(4))
        result = OfflineMapper(width=2).map_pattern(pattern)
        rebuilt = InstructionInterpreter(2).run(lower_ir(result.ir))
        assert rebuilt.structurally_equal(result.ir)

    def test_demands_match_temporal_edges(self):
        pattern = translate_circuit(qaoa(4, seed=0))
        result = OfflineMapper(width=2).map_pattern(pattern)
        total_connections = sum(
            d.adjacent_connections + d.cross_connections for d in result.demands
        )
        assert total_connections == len(result.ir.temporal_edges())
        assert len(result.demands) == result.layer_count

    def test_occupancy_limit_enforced(self):
        """Each layer introduces at most ceil(limit * W^2) incomplete nodes."""
        pattern = translate_circuit(qaoa(9, seed=0))
        width = 4
        limit = max(1, int(0.25 * width * width))
        result = OfflineMapper(width=width, occupancy_limit=0.25).map_pattern(pattern)
        # Count *new graph nodes with pending edges* per layer: bounded by
        # the incomplete-node cap (+1 because the limit is checked before
        # placement).
        by_layer: dict[int, int] = {}
        placed_layer = {g: coord[2] for g, coord in result.ir.graph_nodes().items()}
        for g_node, layer in placed_layer.items():
            neighbors = pattern.graph.neighbors(g_node)
            if any(placed_layer[nb] >= layer for nb in neighbors):
                by_layer[layer] = by_layer.get(layer, 0) + 1
        assert max(by_layer.values()) <= limit + 1

    def test_memory_budget_enforced(self):
        pattern = translate_circuit(qft(9))
        with pytest.raises(MemoryBudgetExceeded):
            OfflineMapper(
                width=3,
                memory_budget_bytes=10 * 2**20,
                bytes_per_node_layer=2**20,
            ).map_pattern(pattern)

    def test_refresh_reduces_peak_memory(self):
        pattern = translate_circuit(qft(9))
        plain = OfflineMapper(width=3, bytes_per_node_layer=2**20).map_pattern(pattern)
        refreshed = OfflineMapper(
            width=3, refresh_every=5, bytes_per_node_layer=2**20
        ).map_pattern(pattern)
        assert refreshed.peak_memory_bytes < plain.peak_memory_bytes
        assert refreshed.layer_count > plain.layer_count  # the #RSL price
        assert refreshed.refresh_layer_count > 0

    def test_refresh_preserves_edge_realization(self):
        pattern = translate_circuit(qaoa(9, seed=3))
        result = OfflineMapper(width=3, refresh_every=4).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.ir.connected_graph_pairs() == expected

    def test_dense_program_on_tiny_hardware(self):
        """Worldline meetings + home relocation let even a 2x2 layer host a
        fully-entangled 9-qubit program (many more live wires than cells)."""
        pattern = translate_circuit(vqe(9, seed=0))
        result = OfflineMapper(width=2).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.ir.connected_graph_pairs() == expected

    def test_static_scheduling_works_but_differs(self):
        pattern = translate_circuit(qaoa(4, seed=5))
        dynamic = OfflineMapper(width=2).map_pattern(pattern)
        static = OfflineMapper(width=2, dynamic_scheduling=False).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert static.ir.connected_graph_pairs() == expected
        assert dynamic.ir.connected_graph_pairs() == expected

    def test_wider_hardware_fewer_layers(self):
        pattern = translate_circuit(qft(9))
        narrow = OfflineMapper(width=3).map_pattern(pattern)
        wide = OfflineMapper(width=6).map_pattern(pattern)
        assert wide.layer_count < narrow.layer_count

    def test_single_wire_program(self):
        circuit = Circuit(1)
        for _ in range(4):
            circuit.j(0.3, 0)
        pattern = translate_circuit(circuit)
        result = OfflineMapper(width=2).map_pattern(pattern)
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert result.ir.connected_graph_pairs() == expected


@given(
    family=st.sampled_from(["qaoa", "qft", "rca", "vqe"]),
    qubits=st.sampled_from([4, 9]),
    seed=st.integers(0, 3),
    width=st.integers(2, 5),
    dynamic=st.booleans(),
    refresh=st.sampled_from([None, 3]),
)
@settings(max_examples=40, deadline=None)
def test_every_stored_entry_owes_an_edge(family, qubits, seed, width, dynamic, refresh):
    """After every layer, each memory entry still has a pending edge, so
    "memory is non-empty" is exactly "some stored node owes an edge"."""
    pattern = translate_circuit(make_benchmark(family, qubits, seed=seed))
    mapper = OfflineMapper(width=width, dynamic_scheduling=dynamic, refresh_every=refresh)
    state = _MapperState(mapper, pattern)
    map_one_layer = state._map_one_layer

    def checked_layer() -> bool:
        progress = map_one_layer()
        assert all(entry.pending for entry in state.memory.values())
        return progress

    state._map_one_layer = checked_layer
    try:
        state.run()
    except MappingError:
        pass  # a stall ends the run; every layer before it was checked

@pytest.mark.xfail(
    strict=True,
    raises=MappingError,
    reason="the mapper stalls meeting stored worldlines for a deferred edge",
)
@pytest.mark.parametrize("qubits, seed", [(9, 4), (16, 0)])
def test_fig14_qaoa_offline_map_does_not_stall(qubits, seed):
    """translate -> rewrite -> offline-map of fig14's qaoa jobs.  These two
    stall today with every node placed and 11 (qaoa-9) or 18 (qaoa-16)
    edges deferred; the error must list the stuck edges and their homes."""
    pipeline = Pipeline(
        FIG14_SETTINGS, passes=(TranslatePass(), RewritePass(), OfflineMapPass())
    )
    try:
        pipeline.run_circuit(make_benchmark("qaoa", qubits, seed=seed), seed)
    except MappingError as error:
        message = str(error)
        assert "0 nodes unmapped" in message
        shown = re.search(r"stuck edges \(node@home\): (.*)", message).group(1)
        edges = re.findall(r"(\d+)@\((\d+), (\d+)\)-(\d+)@\((\d+), (\d+)\)", shown)
        assert len(edges) == 8
        pairs = [(int(edge[0]), int(edge[3])) for edge in edges]
        assert pairs == sorted(pairs) and all(u < v for u, v in pairs)
        raise


# -- byte-level pin of the mapper's output ------------------------------------

#: sha256 per case of :func:`mapping_dump`, generated before the mapper's
#: incremental front layer landed; regenerate, after an intended change to
#: the mapping only, with
#: ``PYTHONPATH=src python tests/test_offline.py --write-digests``.
DIGESTS_PATH = Path(__file__).parent / "data" / "mapping_digests.json"


def mapping_dump(run) -> dict:
    """Canonical JSON-ready dump of ``run()``'s ``MappingResult``, or of the
    mapping error it raises."""
    try:
        result = run()
    except MappingError as error:
        return {"error": type(error).__name__, "message": str(error)}
    nodes = [
        [list(coord), node.role, node.g_node,
         node.temporal_prev and list(node.temporal_prev),
         node.temporal_next and list(node.temporal_next)]
        for coord, node in result.ir.nodes.items()
    ]
    return {
        "nodes": nodes,
        "spatial_edges": sorted(sorted(map(list, edge)) for edge in result.ir.spatial_edges),
        "demands": [
            [demand.adjacent_connections, demand.cross_connections, list(demand.cross_gaps)]
            for demand in result.demands
        ],
        "counters": [
            result.layer_count,
            result.refresh_layer_count,
            result.peak_memory_bytes,
            result.retrievals,
            result.deferred_edge_realizations,
            result.ancilla_cells,
        ],
    }


def mapping_cases() -> dict[str, object]:
    """Case id -> zero-argument callable running one mapping."""
    cases = {}
    for family in ("qaoa", "qft", "rca", "vqe"):
        for qubits in (4, 9, 16):
            pattern = translate_circuit(make_benchmark(family, qubits, seed=0))
            for width in (2, 3, 5):
                for dynamic in (True, False):
                    for refresh in (None, 4):
                        mapper = OfflineMapper(
                            width=width, dynamic_scheduling=dynamic, refresh_every=refresh
                        )
                        key = (
                            f"{family}{qubits}-w{width}-"
                            f"{'dynamic' if dynamic else 'static'}-refresh{refresh}"
                        )
                        cases[key] = partial(mapper.map_pattern, pattern)
    front = Pipeline(FIG14_SETTINGS, passes=(TranslatePass(), RewritePass()))
    for qubits, seed in ((9, 4), (16, 0)):
        circuit = make_benchmark("qaoa", qubits, seed=seed)
        pattern = front.run_circuit(circuit, seed).require("pattern")
        mapper = OfflineMapper(width=FIG14_SETTINGS.virtual_size)
        cases[f"fig14-qaoa{qubits}-seed{seed}"] = partial(mapper.map_pattern, pattern)
    return cases


def mapping_digests() -> dict[str, str]:
    return {
        key: hashlib.sha256(
            json.dumps(mapping_dump(run), sort_keys=True).encode()
        ).hexdigest()
        for key, run in mapping_cases().items()
    }


def mapped_cases():
    """``(case id, pattern, MappingResult)`` of every digest case that maps."""
    for key, run in mapping_cases().items():
        try:
            result = run()
        except MappingError:
            continue
        yield key, run.args[0], result


def test_lowering_certificate_on_every_digest_mapping():
    """Each of the 138 digest mappings lowers to an instruction stream that
    re-executes to the same IR, and its wires realize exactly the
    pattern's edge set."""
    mapped = 0
    for key, pattern, result in mapped_cases():
        ir = result.ir
        rebuilt = InstructionInterpreter(ir.width).run(lower_ir(ir))
        assert rebuilt.structurally_equal(ir), key
        expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
        assert ir.connected_graph_pairs() == expected, key
        mapped += 1
    assert mapped == 138


def test_lower_ir_matches_per_layer_scan_on_digest_mappings():
    """The layer-grouped lowering emits the oracle's stream on every digest
    mapping of up to 9 qubits (the oracle is quadratic in the layers)."""
    for key, _pattern, result in mapped_cases():
        if re.match(r"[a-z]+16-", key):
            continue
        assert lower_ir(result.ir) == lower_ir_scan(result.ir), key


def test_held_mapping_ir_leaves_the_collector_almost_nothing():
    """The IR's columns hold only ints, strings and tuples of them, which
    the garbage collector stops tracking: holding a qft-16 mapping's IR adds
    fewer tracked objects than a tenth of its nodes.  (The whole
    ``MappingResult`` also holds one ``LayerDemand`` per layer.)"""
    pattern = translate_circuit(qft(16))
    mapper = OfflineMapper(width=3)
    gc.collect()
    before = len(gc.get_objects())
    ir = mapper.map_pattern(pattern).ir
    gc.collect()
    added = len(gc.get_objects()) - before
    assert added < len(ir.nodes) / 10


def test_mapping_pickle_round_trip():
    result = OfflineMapper(width=3).map_pattern(translate_circuit(qft(9)))
    clone = pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    assert mapping_dump(lambda: clone) == mapping_dump(lambda: result)
    assert clone.ir.structurally_equal(result.ir)


def test_mapping_digests_unchanged():
    """Every placement, route, demand and counter of the 144 grid mappings
    and fig14's two qaoa stalls is byte-identical to the pinned digests
    (a case that raises pins its error type and message)."""
    expected = json.loads(DIGESTS_PATH.read_text())
    actual = mapping_digests()
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"mapping output changed for {changed}"


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write-digests"]:
        sys.exit("usage: python tests/test_offline.py --write-digests")
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(mapping_digests(), indent=1, sort_keys=True) + "\n")
