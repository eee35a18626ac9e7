"""Hypothesis property tests across the whole pipeline.

Random circuits are the adversary: whatever {J, CZ} program hypothesis
invents, the translation must produce a valid causal pattern, the mapper
must realize exactly its edge set, the instruction stream must replay, and
(on small cases) the MBQC execution must match dense simulation.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from semantics import run_pattern, simulate_statevector, states_equal_up_to_phase

from repro.circuits import Circuit
from repro.ir import InstructionInterpreter, lower_ir
from repro.mbqc import DependencyDAG, translate_circuit
from repro.offline import OfflineMapper


@st.composite
def jcz_circuits(draw, max_qubits=4, max_gates=14):
    """Random {J, CZ} circuits."""
    num_qubits = draw(st.integers(2, max_qubits))
    circuit = Circuit(num_qubits, name="hyp")
    for _ in range(draw(st.integers(1, max_gates))):
        if draw(st.booleans()):
            wire = draw(st.integers(0, num_qubits - 1))
            angle = draw(
                st.floats(0, 2 * math.pi - 1e-9, allow_nan=False, allow_infinity=False)
            )
            circuit.j(angle, wire)
        else:
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 1))
            if a != b:
                circuit.cz(a, b)
    return circuit


@given(jcz_circuits())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_translation_always_valid(circuit):
    pattern = translate_circuit(circuit)
    pattern.validate()
    order = pattern.flow_order()
    assert len(order) == pattern.measured_count
    DependencyDAG(pattern)  # raises on cycles


@given(jcz_circuits())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mapper_realizes_random_programs_exactly(circuit):
    pattern = translate_circuit(circuit)
    result = OfflineMapper(width=2).map_pattern(pattern)
    expected = {frozenset((u, v)) for u, v in pattern.graph.edges()}
    assert result.ir.connected_graph_pairs() == expected
    assert set(result.ir.graph_nodes()) == set(pattern.nodes)


@given(jcz_circuits())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_instruction_stream_replays_random_programs(circuit):
    pattern = translate_circuit(circuit)
    result = OfflineMapper(width=2).map_pattern(pattern)
    rebuilt = InstructionInterpreter(2).run(lower_ir(result.ir))
    assert rebuilt.structurally_equal(result.ir)


@given(jcz_circuits(max_qubits=3, max_gates=8), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mbqc_matches_dense_simulation(circuit, seed):
    pattern = translate_circuit(circuit)
    zero = np.zeros(2**circuit.num_qubits, dtype=complex)
    zero[0] = 1.0
    output, _ = run_pattern(
        pattern, input_state=zero, rng=np.random.default_rng(seed)
    )
    assert states_equal_up_to_phase(output, simulate_statevector(circuit))


@given(jcz_circuits(max_qubits=3, max_gates=10))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_demands_always_executable(circuit):
    """Mapper demands never exceed the virtual layer's capacity and carry
    consistent cross-gap annotations."""
    pattern = translate_circuit(circuit)
    result = OfflineMapper(width=2).map_pattern(pattern)
    for demand in result.demands:
        assert demand.adjacent_connections + demand.cross_connections <= 4
        assert len(demand.cross_gaps) == demand.cross_connections
        assert all(gap >= 2 for gap in demand.cross_gaps)
