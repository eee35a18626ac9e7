"""Tests for pattern-level optimization (zero-pair contraction)."""

import numpy as np
import pytest
from semantics import run_pattern, simulate_statevector, states_equal_up_to_phase

from repro.circuits import Circuit, qft, to_jcz
from repro.mbqc import merge_zero_pairs, optimize_pattern, translate_circuit


def unsimplified_pattern(circuit):
    """Translate without the circuit-level J(0) peephole, so zero pairs
    survive into the pattern for the optimizer to find."""
    return translate_circuit(to_jcz(circuit, simplify=False))


def zero_state(pattern):
    state = np.zeros(2 ** len(pattern.inputs), dtype=complex)
    state[0] = 1.0
    return state


class TestMergeZeroPairs:
    def test_contracts_double_hadamard(self):
        circuit = Circuit(1)
        # rz anchors the wire so the H pair sits mid-wire (inputs are never
        # contracted), then H H leaves two adjacent zero-angle nodes.
        circuit.rz(0.7, 0).h(0).h(0).rz(0.3, 0)
        pattern = unsimplified_pattern(circuit)
        report = merge_zero_pairs(pattern)
        assert report.contracted_pairs >= 1
        assert report.nodes_after < report.nodes_before

    def test_no_op_on_simplified_pattern(self):
        pattern = translate_circuit(qft(2))
        before = pattern.node_count
        report = merge_zero_pairs(pattern)
        # The circuit-level peephole already took the free pairs; whatever
        # remains must involve CZ-entangled nodes the optimizer must skip.
        assert report.nodes_after <= before

    def test_preserves_interface(self):
        circuit = Circuit(2)
        circuit.rz(0.5, 0).rz(0.5, 0).cz(0, 1).rz(0.2, 1)
        pattern = unsimplified_pattern(circuit)
        inputs, outputs = list(pattern.inputs), list(pattern.outputs)
        merge_zero_pairs(pattern)
        assert pattern.inputs == inputs
        assert pattern.outputs == outputs

    def test_pattern_still_validates(self):
        pattern = unsimplified_pattern(qft(2))
        merge_zero_pairs(pattern)
        pattern.validate()
        assert len(pattern.flow_order()) == pattern.measured_count

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: c.rz(0.7, 0).h(0).h(0).rz(0.3, 0),
            lambda c: c.h(0).h(0).rz(1.1, 0),
            lambda c: c.rz(0.4, 0).cz(0, 1).rz(0.6, 1).h(1).h(1).rz(0.2, 1),
            lambda c: c.rz(0.9, 0).x(0).x(0).rz(0.1, 0),
        ],
    )
    def test_semantics_preserved(self, build):
        """Optimized patterns compute the same state (dense validation)."""
        circuit = Circuit(2)
        build(circuit)
        pattern = unsimplified_pattern(circuit)
        optimize_pattern(pattern)
        output, _ = run_pattern(
            pattern, input_state=zero_state(pattern), rng=np.random.default_rng(3)
        )
        assert states_equal_up_to_phase(output, simulate_statevector(circuit))

    def test_skips_entangled_zero_nodes(self):
        """Zero-angle nodes carrying CZ edges are load-bearing: kept."""
        circuit = Circuit(2)
        # H on wire 0, then CZ, then H again: the two J(0) nodes sandwich an
        # entangling edge and must NOT contract.
        circuit.h(0).cz(0, 1).h(0).rz(0.3, 1)
        pattern = unsimplified_pattern(circuit)
        before = pattern.graph.edge_count
        report = merge_zero_pairs(pattern)
        assert report.contracted_pairs == 0
        assert pattern.graph.edge_count == before

    def test_optimizer_shrinks_mapping_input(self):
        """Fewer pattern nodes means fewer layers for the offline mapper."""
        from repro.offline import OfflineMapper

        circuit = Circuit(2)
        circuit.rz(0.5, 0).rz(0.5, 1)
        for _ in range(3):
            circuit.h(0).h(0).h(1).h(1)
        circuit.cz(0, 1)
        circuit.rz(0.2, 0).rz(0.2, 1)
        raw = unsimplified_pattern(circuit)
        optimized = unsimplified_pattern(circuit)
        optimize_pattern(optimized)
        assert optimized.node_count < raw.node_count
        raw_layers = OfflineMapper(width=2).map_pattern(raw).layer_count
        optimized_layers = OfflineMapper(width=2).map_pattern(optimized).layer_count
        assert optimized_layers <= raw_layers
