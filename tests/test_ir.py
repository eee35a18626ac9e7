"""Tests for the FlexLattice IR and the instruction set."""

import re

import pytest

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
    lower_ir,
)


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

    def test_lower_ir_emits_store_retrieve_for_worldlines(self):
        ir = FlexLatticeIR(2)
        ir.add_node((0, 0, 0), ROLE_GRAPH, 1)
        ir.add_node((0, 0, 4), ROLE_WORLDLINE, 1)
        ir.add_temporal_edge((0, 0, 0), (0, 0, 4))
        program = lower_ir(ir)
        kinds = [type(instr).__name__ for instr in program]
        assert "StoreVNode" in kinds
        assert "RetrieveVNode" in kinds
