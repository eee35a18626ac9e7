"""Property tests of the stabilizer tableau itself (beyond rule-checking).

These pin down the tableau as a trustworthy oracle: graph-state round trips,
Clifford group identities, measurement statistics, and extraction stability
under random Clifford noise that should not change the graph.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from semantics import PauliProduct, Tableau, graph_from_adjacency

from repro.graphstate import GraphState


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


graph_params = st.tuples(st.integers(2, 7), st.integers(0, 2**21 - 1))


class TestRoundTrips:
    @given(graph_params)
    @settings(max_examples=60, deadline=None)
    def test_graph_extraction_is_inverse_of_preparation(self, params):
        size, bits = params
        graph = random_graph(size, bits)
        tableau, _index = Tableau.from_graph(graph)
        adjacency, ops = tableau.extract_graph(list(range(size)))
        assert graph_from_adjacency(adjacency) == graph
        # A genuine graph state needs no Hadamard corrections.
        assert all(op != "H" for op, _q in ops)

    @given(graph_params)
    @settings(max_examples=30, deadline=None)
    def test_pauli_noise_does_not_change_the_graph(self, params):
        """Pauli corrections are sign-only: extraction is blind to them."""
        size, bits = params
        graph = random_graph(size, bits)
        tableau, _ = Tableau.from_graph(graph)
        rng = np.random.default_rng(bits % 1000)
        for qubit in range(size):
            if rng.random() < 0.5:
                tableau.pauli_x(qubit)
            if rng.random() < 0.5:
                tableau.pauli_z(qubit)
        adjacency, _ = tableau.extract_graph(list(range(size)))
        assert graph_from_adjacency(adjacency) == graph

    @given(graph_params)
    @settings(max_examples=30, deadline=None)
    def test_s_gates_do_not_change_the_graph(self, params):
        """S is diagonal: the canonical extraction lands on the same graph."""
        size, bits = params
        graph = random_graph(size, bits)
        tableau, _ = Tableau.from_graph(graph)
        for qubit in range(size):
            if (bits >> qubit) & 1:
                tableau.phase_gate(qubit)
        adjacency, _ = tableau.extract_graph(list(range(size)))
        assert graph_from_adjacency(adjacency) == graph


class TestCliffordIdentities:
    def test_h_squared_is_identity(self):
        graph = random_graph(4, 0b101010)
        tableau, _ = Tableau.from_graph(graph)
        tableau.hadamard(1)
        tableau.hadamard(1)
        adjacency, _ = tableau.extract_graph([0, 1, 2, 3])
        assert graph_from_adjacency(adjacency) == graph

    def test_s_fourth_power_is_identity_on_signs(self):
        tableau = Tableau(1)
        tableau.hadamard(0)  # |+>
        for _ in range(4):
            tableau.phase_gate(0)
        assert tableau.measure_letter(0, "X") == 0  # still exactly |+>

    def test_sdg_inverts_s(self):
        tableau = Tableau(1)
        tableau.hadamard(0)
        tableau.phase_gate(0)
        tableau.phase_gate_dagger(0)
        assert tableau.measure_letter(0, "X") == 0

    def test_cnot_from_cz_and_h(self):
        """CZ = H CNOT H on the target, and vice versa."""
        a = Tableau(2)
        a.hadamard(0)
        a.cnot(0, 1)  # Bell state
        # Z0 Z1 and X0 X1 stabilize it: both deterministic 0.
        zz = PauliProduct.from_letters(2, {0: "Z", 1: "Z"})
        xx = PauliProduct.from_letters(2, {0: "X", 1: "X"})
        assert a.measure_pauli(zz) == 0
        assert a.measure_pauli(xx) == 0

    def test_sqrt_x_squares_to_x(self):
        """(sqrt X)^2 acts as X: flips a |0> to |1>."""
        tableau = Tableau(1)
        tableau.sqrt_x(0)
        tableau.sqrt_x(0)
        assert tableau.measure_letter(0, "Z") == 1


class TestMeasurementStatistics:
    def test_plus_state_z_measurement_unbiased(self):
        rng = np.random.default_rng(7)
        ones = 0
        for _ in range(300):
            tableau = Tableau(1)
            tableau.hadamard(0)
            ones += tableau.measure_letter(0, "Z", rng=rng)
        assert 100 < ones < 200

    def test_repeated_measurement_is_stable(self):
        rng = np.random.default_rng(3)
        tableau = Tableau(1)
        tableau.hadamard(0)
        first = tableau.measure_letter(0, "Z", rng=rng)
        for _ in range(5):
            assert tableau.measure_letter(0, "Z", rng=rng) == first

    def test_bell_correlations(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            tableau = Tableau(2)
            tableau.hadamard(0)
            tableau.cnot(0, 1)
            a = tableau.measure_letter(0, "Z", rng=rng)
            b = tableau.measure_letter(1, "Z", rng=rng)
            assert a == b

    def test_graph_state_stabilizer_deterministic(self):
        """Every generator X_i Z_N(i) measures 0 on |G> (the definition)."""
        graph = random_graph(5, 0b1011011)
        tableau, index = Tableau.from_graph(graph)
        for node in graph.nodes():
            letters = {index[node]: "X"}
            for neighbor in graph.neighbors(node):
                letters[index[neighbor]] = "Z"
            product = PauliProduct.from_letters(5, letters)
            assert tableau.measure_pauli(product) == 0
