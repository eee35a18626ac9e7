"""Tests for the circuit IR, the {J, CZ} lowering and the benchmarks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from semantics import (
    gate_matrix,
    simulate_statevector,
    simulate_unitary,
    unitaries_equal_up_to_phase,
)

from repro.circuits import (
    Circuit,
    Gate,
    make_benchmark,
    qaoa,
    qft,
    random_maxcut_graph,
    rca,
    to_jcz,
    vqe,
)
from repro.errors import CircuitError


class TestGate:
    def test_unknown_gate(self):
        with pytest.raises(CircuitError):
            Gate("frobnicate", (0,))

    def test_wrong_arity(self):
        with pytest.raises(CircuitError):
            Gate("cx", (0,))

    def test_repeated_qubits(self):
        with pytest.raises(CircuitError):
            Gate("cx", (1, 1))

    def test_param_arity(self):
        with pytest.raises(CircuitError):
            Gate("rz", (0,))  # missing angle
        with pytest.raises(CircuitError):
            Gate("h", (0,), (0.5,))  # spurious angle

    def test_str_contains_angle(self):
        assert "0.5000" in str(Gate("rz", (0,), (0.5,)))


class TestCircuit:
    def test_needs_positive_qubits(self):
        with pytest.raises(CircuitError):
            Circuit(0)

    def test_qubit_range_checked(self):
        circuit = Circuit(2)
        with pytest.raises(CircuitError):
            circuit.h(2)

    def test_depth(self):
        circuit = Circuit(2)
        circuit.h(0).h(1).cx(0, 1).h(0)
        assert circuit.depth() == 3

    def test_count(self):
        circuit = Circuit(2)
        circuit.h(0).h(1).cz(0, 1)
        assert circuit.count("h") == 2
        assert circuit.count("cz") == 1

    def test_is_jcz(self):
        circuit = Circuit(2)
        circuit.j(0.1, 0).cz(0, 1)
        assert circuit.is_jcz()
        circuit.h(0)
        assert not circuit.is_jcz()

    def test_copy_independent(self):
        circuit = Circuit(1)
        circuit.h(0)
        clone = circuit.copy()
        clone.h(0)
        assert len(circuit) == 1 and len(clone) == 2


class TestLowering:
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: c.h(0),
            lambda c: c.x(0),
            lambda c: c.y(0),
            lambda c: c.z(0),
            lambda c: c.s(0),
            lambda c: c.sdg(0),
            lambda c: c.t(0),
            lambda c: c.tdg(0),
            lambda c: c.rx(0.37, 0),
            lambda c: c.ry(0.91, 0),
            lambda c: c.rz(1.23, 0),
            lambda c: c.p(0.55, 0),
            lambda c: c.cx(0, 1),
            lambda c: c.cz(0, 1),
            lambda c: c.cp(0.8, 0, 1),
            lambda c: c.swap(0, 1),
            lambda c: c.ccx(0, 1, 2),
        ],
    )
    def test_each_gate_lowering_preserves_unitary(self, build):
        circuit = Circuit(3)
        build(circuit)
        lowered = to_jcz(circuit)
        assert lowered.is_jcz()
        assert unitaries_equal_up_to_phase(
            simulate_unitary(circuit), simulate_unitary(lowered)
        )

    def test_j0_pairs_cancel(self):
        circuit = Circuit(1)
        circuit.h(0).h(0)
        lowered = to_jcz(circuit)
        assert len(lowered) == 0

    def test_simplify_respects_interleaving(self):
        circuit = Circuit(2)
        circuit.h(0).cz(0, 1).h(0)
        lowered = to_jcz(circuit)
        assert lowered.count("j") == 2  # CZ between them blocks cancellation

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_circuit_lowering(self, seed):
        rng = np.random.default_rng(seed)
        circuit = Circuit(3, name="random")
        one_qubit = ["h", "x", "s", "t"]
        for _ in range(10):
            choice = rng.integers(0, 3)
            if choice == 0:
                circuit.add(one_qubit[int(rng.integers(len(one_qubit)))], int(rng.integers(3)))
            elif choice == 1:
                circuit.rz(float(rng.uniform(0, 2 * math.pi)), int(rng.integers(3)))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                circuit.cz(int(a), int(b))
        lowered = to_jcz(circuit)
        assert unitaries_equal_up_to_phase(
            simulate_unitary(circuit), simulate_unitary(lowered)
        )


class TestBenchmarks:
    def test_qft_matches_dft_matrix(self):
        """The QFT circuit's unitary is the DFT matrix (with final swaps)."""
        n = 3
        dim = 2**n
        omega = np.exp(2j * math.pi / dim)
        dft = np.array(
            [[omega ** (row * col) for col in range(dim)] for row in range(dim)]
        ) / math.sqrt(dim)
        unitary = simulate_unitary(qft(n))
        assert unitaries_equal_up_to_phase(unitary, dft)

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (1, 1)])
    def test_rca_one_bit_addition(self, a, b):
        """The 4-qubit Cuccaro adder computes b <- a + b with carry out."""
        circuit = Circuit(4, name="prep")
        if b:
            circuit.x(1)  # b0 wire
        if a:
            circuit.x(2)  # a0 wire
        for gate in rca(4).gates:
            circuit.append(gate)
        state = simulate_statevector(circuit)
        basis = int(np.argmax(np.abs(state)))
        bits = [(basis >> (3 - wire)) & 1 for wire in range(4)]
        total = a + b
        assert bits[1] == total % 2  # sum bit on the b wire
        assert bits[3] == total // 2  # carry-out wire
        assert bits[2] == a  # a register restored

    def test_rca_two_bit_addition(self):
        """a=3, b=1 on the 6-qubit adder: b <- 0 (mod 4), carry 1."""
        circuit = Circuit(6, name="prep")
        circuit.x(1)  # b0 = 1
        circuit.x(2).x(4)  # a = 11b = 3
        for gate in rca(6).gates:
            circuit.append(gate)
        state = simulate_statevector(circuit)
        basis = int(np.argmax(np.abs(state)))
        bits = [(basis >> (5 - wire)) & 1 for wire in range(6)]
        assert (bits[1], bits[3]) == (0, 0)  # sum 100b -> low bits 0
        assert bits[5] == 1  # carry out
        assert (bits[2], bits[4]) == (1, 1)  # a restored

    def test_rca_too_small(self):
        with pytest.raises(CircuitError):
            rca(3)

    def test_qaoa_gate_structure(self):
        circuit = qaoa(4, seed=0)
        assert circuit.count("h") == 4
        assert circuit.count("rx") == 4
        # Half the possible edges -> 3 of 6, each expands to cx rz cx.
        assert circuit.count("cx") == 6
        assert circuit.count("rz") == 3

    def test_qaoa_seed_reproducible(self):
        a = qaoa(5, seed=3)
        b = qaoa(5, seed=3)
        assert [str(g) for g in a.gates] == [str(g) for g in b.gates]

    def test_random_maxcut_graph_half_edges(self):
        rng = np.random.default_rng(0)
        edges = random_maxcut_graph(6, rng)
        assert len(edges) == 15 // 2
        assert len(set(edges)) == len(edges)

    def test_vqe_full_entanglement(self):
        circuit = vqe(4, seed=0)
        assert circuit.count("cz") == 6  # all pairs
        assert circuit.count("ry") == 8  # one wall per layer + final wall

    def test_vqe_layers(self):
        assert vqe(3, seed=0, layers=2).count("cz") == 6

    def test_make_benchmark_dispatch(self):
        assert make_benchmark("qft", 3).name == "qft-3"
        with pytest.raises(CircuitError):
            make_benchmark("nope", 3)

    def test_benchmarks_have_expected_qubits(self):
        for family in ("qaoa", "qft", "rca", "vqe"):
            assert make_benchmark(family, 9, seed=1).num_qubits == 9


class TestSimulator:
    def test_statevector_normalized(self):
        circuit = qaoa(3, seed=2)
        state = simulate_statevector(circuit)
        assert math.isclose(float(np.linalg.norm(state)), 1.0, abs_tol=1e-9)

    def test_bell_state(self):
        circuit = Circuit(2)
        circuit.h(0).cx(0, 1)
        state = simulate_statevector(circuit)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(state, expected)

    def test_width_cap(self):
        with pytest.raises(CircuitError):
            simulate_statevector(Circuit(20))

    def test_gate_matrix_unitary(self):
        for gate in [Gate("h", (0,)), Gate("rz", (0,), (0.3,)), Gate("ccx", (0, 1, 2))]:
            matrix = gate_matrix(gate)
            assert np.allclose(matrix @ matrix.conj().T, np.eye(matrix.shape[0]))
