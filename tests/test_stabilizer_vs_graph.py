"""The stabilizer tableau as ground truth for the graph rewrite rules.

These are the load-bearing correctness tests of the quantum substrate: every
graph-level rule the online pass relies on (fusion success/failure, X/Y/Z
measurements, local complementation) is checked edge-for-edge against an
independent CHP simulation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from semantics import (
    PauliProduct,
    Tableau,
    apply_fusion,
    graph_from_adjacency,
    local_complement,
    measure_x,
    measure_y,
    measure_z,
)

from repro.errors import GraphStateError
from repro.graphstate import GraphState


def expected_adjacency(graph: GraphState, order: list) -> np.ndarray:
    size = len(order)
    matrix = np.zeros((size, size), dtype=np.uint8)
    for i, u in enumerate(order):
        for j, v in enumerate(order):
            if i != j and graph.has_edge(u, v):
                matrix[i, j] = 1
    return matrix


def random_graph(num_nodes: int, edge_bits: int) -> GraphState:
    graph = GraphState()
    for node in range(num_nodes):
        graph.add_node(node)
    index = 0
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if (edge_bits >> index) & 1:
                graph.add_edge(i, j)
            index += 1
    return graph


def assert_tableau_matches(tableau: Tableau, graph: GraphState) -> None:
    keep = sorted(graph.nodes())
    adjacency, _ops = tableau.extract_graph(keep)
    assert np.array_equal(adjacency, expected_adjacency(graph, keep))


def two_stars() -> GraphState:
    graph = GraphState()
    for leaf in (1, 2, 3):
        graph.add_edge(0, leaf)
    for leaf in (5, 6, 7):
        graph.add_edge(4, leaf)
    return graph


class TestTableauBasics:
    def test_zero_state_stabilizers(self):
        tableau = Tableau(2)
        adjacency, ops = tableau.extract_graph([0, 1])
        # |00> reduces to the empty graph (after local Hadamards).
        assert adjacency.sum() == 0
        assert {op for op, _q in ops} <= {"H", "S"}

    def test_graph_state_round_trip(self):
        graph = GraphState([(0, 1), (1, 2)])
        tableau, _ = Tableau.from_graph(graph)
        assert_tableau_matches(tableau, graph)

    def test_measurement_deterministic_on_stabilizer(self):
        graph = GraphState([(0, 1)])
        tableau, index = Tableau.from_graph(graph)
        # X_0 Z_1 stabilizes the 2-qubit graph state: outcome must be 0.
        product = PauliProduct.from_letters(2, {index[0]: "X", index[1]: "Z"})
        assert tableau.measure_pauli(product) == 0

    def test_postselect_against_determinism_raises(self):
        graph = GraphState([(0, 1)])
        tableau, index = Tableau.from_graph(graph)
        product = PauliProduct.from_letters(2, {index[0]: "X", index[1]: "Z"})
        with pytest.raises(GraphStateError):
            tableau.measure_pauli(product, postselect=1)

    def test_random_measurement_respects_postselect(self):
        tableau = Tableau(1)
        tableau.hadamard(0)  # |+>
        assert tableau.measure_letter(0, "Z", postselect=1) == 1

    def test_entangled_keep_raises(self):
        graph = GraphState([(0, 1)])
        tableau, _ = Tableau.from_graph(graph)
        with pytest.raises(GraphStateError):
            tableau.extract_graph([0])  # qubit 1 still entangled

    def test_measured_out_qubit_can_be_dropped(self):
        graph = GraphState([(0, 1), (1, 2)])
        tableau, index = Tableau.from_graph(graph)
        tableau.measure_letter(index[1], "Z", postselect=0)
        adjacency, _ = tableau.extract_graph([index[0], index[2]])
        assert adjacency.sum() == 0  # Z-measurement cuts the chain

    def test_pauli_product_validates_labels(self):
        with pytest.raises(GraphStateError):
            PauliProduct.from_letters(2, {0: "Q"})

    def test_pauli_product_validates_range(self):
        with pytest.raises(GraphStateError):
            PauliProduct.from_letters(2, {5: "X"})


class TestMeasurementRules:
    @pytest.mark.parametrize("letter", ["Z", "Y"])
    def test_measurement_rule_on_root(self, letter):
        graph = two_stars()
        graph.add_edge(3, 5)
        tableau, index = Tableau.from_graph(graph)
        expected = graph.copy()
        if letter == "Z":
            measure_z(expected, 0)
        else:
            measure_y(expected, 0)
        tableau.measure_letter(index[0], letter, postselect=0)
        assert_tableau_matches(tableau, expected)

    def test_x_measurement_rule_up_to_h_byproduct(self):
        """X measurement matches after the known H byproduct on b."""
        graph = two_stars()
        graph.add_edge(3, 5)
        tableau, index = Tableau.from_graph(graph)
        expected = graph.copy()
        measure_x(expected, 0, special_neighbor=1)
        tableau.measure_letter(index[0], "X", postselect=0)
        tableau.hadamard(index[1])
        assert_tableau_matches(tableau, expected)

    @given(st.integers(3, 7), st.integers(0, 2**21 - 1), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_y_measurement_rule_randomized(self, size, bits, node):
        graph = random_graph(size, bits)
        if node >= size:
            return
        tableau, index = Tableau.from_graph(graph)
        expected = graph.copy()
        measure_y(expected, node)
        tableau.measure_letter(index[node], "Y", postselect=0)
        assert_tableau_matches(tableau, expected)

    @given(st.integers(3, 7), st.integers(0, 2**21 - 1), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_z_measurement_rule_randomized(self, size, bits, node):
        graph = random_graph(size, bits)
        if node >= size:
            return
        tableau, index = Tableau.from_graph(graph)
        expected = graph.copy()
        measure_z(expected, node)
        tableau.measure_letter(index[node], "Z", postselect=0)
        assert_tableau_matches(tableau, expected)


class TestFusionRules:
    def test_leaf_leaf_success_joins_stars(self):
        graph = two_stars()
        tableau, index = Tableau.from_graph(graph)
        expected = graph.copy()
        apply_fusion(expected, 1, 5, True)
        tableau.fuse(index[1], index[5])
        assert expected.has_edge(0, 4)  # the two roots joined
        assert_tableau_matches(tableau, expected)

    def test_leaf_leaf_failure_burns_leaves(self):
        graph = two_stars()
        tableau, index = Tableau.from_graph(graph)
        expected = graph.copy()
        apply_fusion(expected, 1, 5, False)
        tableau.measure_letter(index[1], "Y", postselect=0)
        tableau.measure_letter(index[5], "Y", postselect=0)
        assert not expected.has_edge(0, 4)
        assert_tableau_matches(tableau, expected)

    def test_root_leaf_success_merges_degree(self):
        graph = two_stars()
        expected = graph.copy()
        apply_fusion(expected, 5, 0, True)  # root 0 fused with leaf 5
        # Surviving root 4 gains 0's leaves: degree 2 + 3 = 5.
        assert expected.degree(4) == 5
        tableau, index = Tableau.from_graph(graph)
        tableau.fuse(index[5], index[0])
        assert_tableau_matches(tableau, expected)

    def test_root_leaf_failure_creates_cycle(self):
        """Fig. 8: failing on the root leaves a fully connected structure."""
        graph = two_stars()
        expected = graph.copy()
        apply_fusion(expected, 0, 5, False)
        # 0's neighbours became a clique (LC at 0 before removal).
        assert expected.has_edge(1, 2)
        assert expected.has_edge(2, 3)
        assert expected.has_edge(1, 3)
        tableau, index = Tableau.from_graph(graph)
        tableau.measure_letter(index[0], "Y", postselect=0)
        tableau.measure_letter(index[5], "Y", postselect=0)
        assert_tableau_matches(tableau, expected)

    @given(
        st.integers(4, 8),
        st.integers(0, 2**28 - 1),
        st.integers(0, 7),
        st.integers(0, 7),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_fusion_rule_randomized(self, size, bits, a, b, success):
        graph = random_graph(size, bits)
        if a >= size or b >= size or a == b or graph.has_edge(a, b):
            return
        tableau, index = Tableau.from_graph(graph)
        expected = graph.copy()
        apply_fusion(expected, a, b, success)
        if success:
            tableau.fuse(index[a], index[b])
        else:
            tableau.measure_letter(index[a], "Y", postselect=0)
            tableau.measure_letter(index[b], "Y", postselect=0)
        assert_tableau_matches(tableau, expected)


class TestLocalComplementOperator:
    def test_lc_operator_content(self):
        """U_v(G) = sqrt(-iX)_v prod sqrt(iZ)_u implements tau_v."""
        graph = two_stars()
        expected = graph.copy()
        local_complement(expected, 0)
        tableau, index = Tableau.from_graph(graph)
        tableau.sqrt_x(index[0])
        for leaf in (1, 2, 3):
            tableau.phase_gate(index[leaf])
        assert_tableau_matches(tableau, expected)

    @given(st.integers(3, 7), st.integers(0, 2**21 - 1), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_lc_operator_randomized(self, size, bits, node):
        graph = random_graph(size, bits)
        if node >= size:
            return
        expected = graph.copy()
        local_complement(expected, node)
        tableau, index = Tableau.from_graph(graph)
        tableau.sqrt_x(index[node])
        for neighbor in graph.neighbors(node):
            tableau.phase_gate(index[neighbor])
        assert_tableau_matches(tableau, expected)


class TestGraphFromAdjacency:
    def test_round_trip(self):
        adjacency = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        graph = graph_from_adjacency(adjacency)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(0, 2)
