"""Tests for the FlexLattice IR and the instruction set."""

import dataclasses
import random
import re

import pytest
from oracles import lower_ir_scan

from repro.errors import InstructionError, IRError
from repro.ir import (
    ROLE_ANCILLA,
    ROLE_GRAPH,
    ROLE_WORLDLINE,
    EnableTemporalVEdge,
    FlexLatticeIR,
    InstructionInterpreter,
    MakeVNodeAncilla,
    MapVNode,
    RetrieveVNode,
    StoreVNode,
    VNode,
    lower_ir,
)


def random_ir(seed: int, width: int = 3, layers: int = 6) -> FlexLatticeIR:
    """A small IR with every temporal situation ``lower_ir`` tells apart:
    worldline retrievals and relocations, direct enables between adjacent
    layers and cross-layer landings on resident nodes."""
    rng = random.Random(seed)
    ir = FlexLatticeIR(width)
    for layer in range(layers):
        for row in range(width):
            for col in range(width):
                draw = rng.random()
                coord = (row, col, layer)
                if draw < 0.15:
                    ir.add_node(coord, ROLE_GRAPH, rng.randrange(50))
                elif draw < 0.3:
                    ir.add_node(coord, ROLE_WORLDLINE, rng.randrange(50))
                elif draw < 0.75:
                    ir.add_node(coord, ROLE_ANCILLA)
    coords = list(ir.role)
    rng.shuffle(coords)
    for a in coords:
        for b in ((a[0] + 1, a[1], a[2]), (a[0], a[1] - 1, a[2])):
            if b in ir.nodes and rng.random() < 0.5:
                ir.add_spatial_edge(a, b)
        later = [
            (a[0], a[1], layer)
            for layer in range(a[2] + 1, layers)
            if (a[0], a[1], layer) in ir.nodes
            and (a[0], a[1], layer) not in ir.temporal_prev
        ]
        if later and rng.random() < 0.6:
            ir.add_temporal_edge(a, rng.choice(later))
    return ir


class TestFlexLatticeIR:
    def test_width_validation(self):
        with pytest.raises(IRError):
            FlexLatticeIR(0)

    def test_add_node_and_query(self):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 7)
        assert ir.node_at((0, 0, 0)).g_node == 7
        assert ir.layer_count == 1

    def test_coordinate_single_use(self):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_ANCILLA)
        with pytest.raises(IRError):
            ir.add_node((0, 0, 0), ROLE_ANCILLA)

    def test_out_of_bounds_rejected(self):
        ir = FlexLatticeIR(2)
        with pytest.raises(IRError):
            ir.add_node((2, 0, 0), ROLE_ANCILLA)
        with pytest.raises(IRError):
            ir.add_node((0, 0, -1), ROLE_ANCILLA)

    def test_role_payload_consistency(self):
        ir = FlexLatticeIR(2)
        with pytest.raises(IRError):
            ir.add_node((0, 0, 0), ROLE_GRAPH)  # graph without g_node
        with pytest.raises(IRError):
            ir.add_node((0, 1, 0), ROLE_ANCILLA, 3)  # ancilla with g_node

    def test_spatial_edge_rules(self):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_ANCILLA)
        ir.add_node((0, 1, 0), ROLE_ANCILLA)
        ir.add_node((0, 2, 1), ROLE_ANCILLA)
        ir.add_spatial_edge((0, 0, 0), (0, 1, 0))
        with pytest.raises(IRError):  # duplicate
            ir.add_spatial_edge((0, 0, 0), (0, 1, 0))
        with pytest.raises(IRError):  # cross-layer
            ir.add_spatial_edge((0, 1, 0), (0, 2, 1))

    def test_spatial_edge_requires_adjacency(self):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_ANCILLA)
        ir.add_node((2, 2, 0), ROLE_ANCILLA)
        with pytest.raises(IRError):
            ir.add_spatial_edge((0, 0, 0), (2, 2, 0))

    @pytest.mark.parametrize("missing_first", [True, False], ids=["a", "b"])
    def test_spatial_edge_endpoint_without_node(self, missing_first):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_ANCILLA)
        ends = [(0, 1, 0), (0, 0, 0)] if missing_first else [(0, 0, 0), (0, 1, 0)]
        with pytest.raises(IRError, match=re.escape("no node at (0, 1, 0)")):
            ir.add_spatial_edge(*ends)
        assert not ir.spatial_edges

    @pytest.mark.parametrize("missing_first", [True, False], ids=["earlier", "later"])
    def test_temporal_edge_endpoint_without_node(self, missing_first):
        ir = FlexLatticeIR(2)
        present, missing = ((0, 0, 1), (0, 0, 0)) if missing_first else ((0, 0, 0), (0, 0, 1))
        ir.add_node(present, ROLE_ANCILLA)
        ends = (missing, present) if missing_first else (present, missing)
        with pytest.raises(IRError, match=re.escape(f"no node at {missing}")):
            ir.add_temporal_edge(*ends)
        assert ir.node_at(present).temporal_prev is None
        assert ir.node_at(present).temporal_next is None

    def test_temporal_edge_one_per_direction(self):
        """Rule 3 of the virtual hardware (Section 6.1)."""
        ir = FlexLatticeIR(2)
        for layer in range(3):
            ir.add_node((0, 0, layer), ROLE_ANCILLA)
        ir.add_temporal_edge((0, 0, 0), (0, 0, 1))
        with pytest.raises(IRError):  # second forward edge from layer 0
            ir.add_temporal_edge((0, 0, 0), (0, 0, 2))
        ir.add_temporal_edge((0, 0, 1), (0, 0, 2))
        with pytest.raises(IRError):  # second backward edge into layer 2
            ir.add_temporal_edge((0, 0, 0), (0, 0, 2))

    def test_temporal_edge_same_coordinate(self):
        ir = FlexLatticeIR(2)
        ir.add_node((0, 0, 0), ROLE_ANCILLA)
        ir.add_node((0, 1, 1), ROLE_ANCILLA)
        with pytest.raises(IRError):
            ir.add_temporal_edge((0, 0, 0), (0, 1, 1))

    def test_temporal_edge_forward_only(self):
        ir = FlexLatticeIR(2)
        ir.add_node((0, 0, 1), ROLE_ANCILLA)
        ir.add_node((0, 0, 0), ROLE_ANCILLA)
        with pytest.raises(IRError):
            ir.add_temporal_edge((0, 0, 1), (0, 0, 0))

    def test_cross_layer_temporal_edges_allowed(self):
        ir = FlexLatticeIR(2)
        ir.add_node((1, 1, 0), ROLE_GRAPH, 1)
        ir.add_node((1, 1, 5), ROLE_WORLDLINE, 1)
        ir.add_temporal_edge((1, 1, 0), (1, 1, 5))
        assert ir.temporal_edges() == [((1, 1, 0), (1, 1, 5))]

    def test_graph_nodes_unique(self):
        ir = FlexLatticeIR(2)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 1, 0), ROLE_GRAPH, 1)
        with pytest.raises(IRError):
            ir.graph_nodes()

    def test_connected_graph_pairs_direct(self):
        ir = FlexLatticeIR(2)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 1, 0), ROLE_GRAPH, 2)
        ir.add_spatial_edge((0, 0, 0), (0, 1, 0))
        assert ir.connected_graph_pairs() == {frozenset((1, 2))}

    def test_connected_graph_pairs_through_wire(self):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 1, 0), ROLE_ANCILLA)
        ir.add_node((0, 2, 0), ROLE_GRAPH, 2)
        ir.add_spatial_edge((0, 0, 0), (0, 1, 0))
        ir.add_spatial_edge((0, 1, 0), (0, 2, 0))
        assert ir.connected_graph_pairs() == {frozenset((1, 2))}

    def test_connected_graph_pairs_through_worldline(self):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 0, 2), ROLE_WORLDLINE, 1)
        ir.add_node((0, 1, 2), ROLE_GRAPH, 2)
        ir.add_temporal_edge((0, 0, 0), (0, 0, 2))
        ir.add_spatial_edge((0, 0, 2), (0, 1, 2))
        assert ir.connected_graph_pairs() == {frozenset((1, 2))}

    def test_overloaded_wire_detected(self):
        ir = FlexLatticeIR(3)
        ir.add_node((1, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((1, 1, 0), ROLE_ANCILLA)
        ir.add_node((1, 2, 0), ROLE_GRAPH, 2)
        ir.add_node((0, 1, 0), ROLE_GRAPH, 3)
        ir.add_spatial_edge((1, 0, 0), (1, 1, 0))
        ir.add_spatial_edge((1, 1, 0), (1, 2, 0))
        ir.add_spatial_edge((0, 1, 0), (1, 1, 0))
        with pytest.raises(IRError):
            ir.connected_graph_pairs()

    def test_structural_equality(self):
        def build():
            ir = FlexLatticeIR(2)
            ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
            ir.add_node((0, 1, 0), ROLE_ANCILLA)
            ir.add_spatial_edge((0, 0, 0), (0, 1, 0))
            return ir

        assert build().structurally_equal(build())
        other = build()
        other.add_node((1, 1, 0), ROLE_ANCILLA)
        assert not build().structurally_equal(other)

    def test_structural_equality_reads_every_column(self):
        def build(edge=True, temporal=True, g_node=1, upper_role=ROLE_WORLDLINE):
            ir = FlexLatticeIR(2)
            ir.add_node((0, 0, 0), ROLE_GRAPH, g_node)
            ir.add_node((0, 1, 0), ROLE_ANCILLA)
            ir.add_node((0, 0, 2), upper_role, None if upper_role == ROLE_ANCILLA else 1)
            if edge:
                ir.add_spatial_edge((0, 0, 0), (0, 1, 0))
            if temporal:
                ir.add_temporal_edge((0, 0, 0), (0, 0, 2))
            return ir

        reference = build()
        # Lowering forgets which wires are worldlines, so that may differ.
        assert reference.structurally_equal(build(upper_role=ROLE_ANCILLA))
        for variant in (
            build(edge=False),
            build(temporal=False),
            build(g_node=2),
            build(upper_role=ROLE_GRAPH),
        ):
            assert not reference.structurally_equal(variant)
            assert not variant.structurally_equal(reference)

    def test_nodes_are_read_only_snapshots_of_the_columns(self):
        ir = FlexLatticeIR(2)
        ir.add_node((0, 1, 0), ROLE_GRAPH, 4)
        ir.add_node((0, 0, 0), ROLE_ANCILLA)
        ir.add_node((0, 1, 2), ROLE_WORLDLINE, 4)
        ir.add_temporal_edge((0, 1, 0), (0, 1, 2))
        assert list(ir.nodes) == [(0, 1, 0), (0, 0, 0), (0, 1, 2)]
        assert len(ir.nodes) == 3
        assert (0, 1, 2) in ir.nodes and (0, 1, 1) not in ir.nodes
        assert ir.nodes[(0, 1, 0)] == VNode((0, 1, 0), ROLE_GRAPH, 4, None, (0, 1, 2))
        assert ir.node_at((0, 1, 2)) == VNode((0, 1, 2), ROLE_WORLDLINE, 4, (0, 1, 0))
        assert ir.nodes[(0, 0, 0)] == VNode((0, 0, 0))
        node = ir.node_at((0, 0, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.role = ROLE_GRAPH
        with pytest.raises(TypeError):
            ir.nodes[(1, 1, 0)] = node
        assert ir.role[(0, 0, 0)] == ROLE_ANCILLA

    def test_spatial_edges_are_canonical_pairs(self):
        ir = FlexLatticeIR(2)
        ir.add_node((1, 0, 0), ROLE_ANCILLA)
        ir.add_node((0, 0, 0), ROLE_ANCILLA)
        ir.add_spatial_edge((1, 0, 0), (0, 0, 0))
        assert ir.spatial_edges == {((0, 0, 0), (1, 0, 0))}
        with pytest.raises(IRError, match="already enabled"):
            ir.add_spatial_edge((0, 0, 0), (1, 0, 0))

    def test_validate_passes_on_consistent_ir(self):
        ir = FlexLatticeIR(2)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 0, 1), ROLE_WORLDLINE, 1)
        ir.add_temporal_edge((0, 0, 0), (0, 0, 1))
        ir.validate()


class TestInstructions:
    def test_paper_canonical_cross_layer_example(self):
        """The Section 6.3 worked example executes verbatim.

        Ancilla A1 at (1,1,0) is stored, retrieved at (1,1,1) *through* the
        resident node N, and lands on graph node A at (1,1,2).
        """
        program = [
            MakeVNodeAncilla(v_node=(1, 1, 0)),
            StoreVNode(v_node=(1, 1, 0)),
            MakeVNodeAncilla(v_node=(1, 1, 1)),  # the resident node N
            RetrieveVNode(v_node=(1, 1, 0), position=(1, 1, 1)),
            MapVNode(v_node=(1, 1, 2), g_node=0),
            EnableTemporalVEdge(v_node=(1, 1, 1), adjacent_v_node=(1, 1, 2)),
        ]
        ir = InstructionInterpreter(width=3).run(program)
        assert ((1, 1, 0), (1, 1, 2)) in ir.temporal_edges()

    def test_retrieve_requires_store(self):
        program = [
            MakeVNodeAncilla(v_node=(0, 0, 0)),
            RetrieveVNode(v_node=(0, 0, 0), position=(0, 0, 1)),
        ]
        with pytest.raises(InstructionError):
            InstructionInterpreter(2).run(program)

    def test_store_twice_rejected(self):
        program = [
            MakeVNodeAncilla(v_node=(0, 0, 0)),
            StoreVNode(v_node=(0, 0, 0)),
            StoreVNode(v_node=(0, 0, 0)),
        ]
        with pytest.raises(InstructionError):
            InstructionInterpreter(2).run(program)

    def test_retrieve_must_keep_coordinate(self):
        program = [
            MakeVNodeAncilla(v_node=(0, 0, 0)),
            StoreVNode(v_node=(0, 0, 0)),
            RetrieveVNode(v_node=(0, 0, 0), position=(1, 1, 1)),
        ]
        with pytest.raises(InstructionError):
            InstructionInterpreter(2).run(program)

    def test_retrieve_must_advance_time(self):
        program = [
            MakeVNodeAncilla(v_node=(0, 0, 1)),
            StoreVNode(v_node=(0, 0, 1)),
            RetrieveVNode(v_node=(0, 0, 1), position=(0, 0, 1)),
        ]
        with pytest.raises(InstructionError):
            InstructionInterpreter(2).run(program)

    def test_dangling_store_rejected_at_end(self):
        program = [
            MakeVNodeAncilla(v_node=(0, 0, 0)),
            StoreVNode(v_node=(0, 0, 0)),
        ]
        with pytest.raises(InstructionError):
            InstructionInterpreter(2).run(program)

    def test_dangling_transit_rejected_at_end(self):
        program = [
            MakeVNodeAncilla(v_node=(0, 0, 0)),
            StoreVNode(v_node=(0, 0, 0)),
            MakeVNodeAncilla(v_node=(0, 0, 1)),
            RetrieveVNode(v_node=(0, 0, 0), position=(0, 0, 1)),  # transit
        ]
        with pytest.raises(InstructionError):
            InstructionInterpreter(2).run(program)

    def test_direct_temporal_enable_adjacent_only(self):
        program = [
            MakeVNodeAncilla(v_node=(0, 0, 0)),
            MakeVNodeAncilla(v_node=(0, 0, 2)),
            EnableTemporalVEdge(v_node=(0, 0, 0), adjacent_v_node=(0, 0, 2)),
        ]
        with pytest.raises(InstructionError):
            InstructionInterpreter(2).run(program)

    def test_retrieve_recreates_identity(self):
        program = [
            MapVNode(v_node=(0, 0, 0), g_node=9),
            StoreVNode(v_node=(0, 0, 0)),
            RetrieveVNode(v_node=(0, 0, 0), position=(0, 0, 3)),
        ]
        ir = InstructionInterpreter(2).run(program)
        node = ir.node_at((0, 0, 3))
        assert node.role == ROLE_WORLDLINE
        assert node.g_node == 9

    def test_lower_ir_round_trip_simple(self):
        ir = FlexLatticeIR(3)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 1, 0), ROLE_ANCILLA)
        ir.add_spatial_edge((0, 0, 0), (0, 1, 0))
        ir.add_node((0, 0, 3), ROLE_WORLDLINE, 1)
        ir.add_temporal_edge((0, 0, 0), (0, 0, 3))
        ir.add_node((0, 1, 3), ROLE_GRAPH, 2)
        ir.add_spatial_edge((0, 0, 3), (0, 1, 3))
        program = lower_ir(ir)
        rebuilt = InstructionInterpreter(3).run(program)
        assert rebuilt.structurally_equal(ir)
        assert rebuilt.connected_graph_pairs() == ir.connected_graph_pairs()

    @pytest.mark.parametrize("seed", range(25))
    def test_lower_ir_matches_per_layer_scan(self, seed):
        """The layer-grouped lowering emits the oracle's stream exactly."""
        ir = random_ir(seed)
        assert lower_ir(ir) == lower_ir_scan(ir)

    def test_random_irs_cover_every_temporal_situation(self):
        kinds = set()
        for seed in range(25):
            ir = random_ir(seed)
            for coord, role in ir.role.items():
                if role == ROLE_WORLDLINE and coord not in ir.temporal_prev:
                    kinds.add("relocation")
            for earlier, later in ir.temporal_next.items():
                if ir.role[later] == ROLE_WORLDLINE:
                    kinds.add("retrieve")
                elif later[2] == earlier[2] + 1:
                    kinds.add("direct")
                else:
                    kinds.add("landing")
        assert kinds == {"relocation", "retrieve", "direct", "landing"}

    def test_lower_ir_emits_store_retrieve_for_worldlines(self):
        ir = FlexLatticeIR(2)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 0, 4), ROLE_WORLDLINE, 1)
        ir.add_temporal_edge((0, 0, 0), (0, 0, 4))
        program = lower_ir(ir)
        kinds = [type(instr).__name__ for instr in program]
        assert "StoreVNode" in kinds
        assert "RetrieveVNode" in kinds
