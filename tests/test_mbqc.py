"""Tests for translation, patterns, dependency DAG and the MBQC simulator."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    SetDependencyDAG,
    dag_depth,
    front_layer_scan,
    pattern_dump,
    to_jcz_gates,
    translate_circuit_gates,
)

from repro.circuits import (
    Circuit,
    qaoa,
    qft,
    rca,
    simulate_statevector,
    states_equal_up_to_phase,
    to_jcz,
    vqe,
)
from repro.circuits.gates import FIXED_GATES, PARAM_GATES
from repro.errors import TranslationError
from repro.graphstate.graph import GraphState
from repro.mbqc import (
    DependencyDAG,
    FrontLayer,
    MeasurementPattern,
    PatternNode,
    run_pattern,
    translate_circuit,
)
from repro.mbqc.translate import pattern_size_summary


def zero_input(pattern):
    n = len(pattern.inputs)
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    return state


class TestTranslation:
    def test_single_j_structure(self):
        circuit = Circuit(1)
        circuit.j(0.4, 0)
        pattern = translate_circuit(circuit)
        assert pattern.node_count == 2
        assert pattern.measured_count == 1
        assert pattern.nodes[0].angle == pytest.approx(0.4)
        assert pattern.nodes[0].successor == 1
        assert pattern.outputs == [1]

    def test_cz_toggles_edge(self):
        circuit = Circuit(2)
        circuit.cz(0, 1).cz(0, 1)
        pattern = translate_circuit(circuit)
        assert pattern.graph.edge_count == 0

    def test_lowering_happens_automatically(self):
        pattern = translate_circuit(qft(2))
        pattern.validate()
        assert pattern.measured_count > 0

    def test_size_summary(self):
        summary = pattern_size_summary(translate_circuit(qaoa(3, seed=0)))
        assert summary["wires"] == 3
        assert summary["nodes"] == summary["measured"] + 3

    def test_flow_order_measures_everything_once(self):
        pattern = translate_circuit(qft(3))
        order = pattern.flow_order()
        assert len(order) == pattern.measured_count
        assert len(set(order)) == len(order)

    def test_flow_order_respects_flow_condition(self):
        """i must precede f(i) and every other neighbour of f(i)."""
        pattern = translate_circuit(qaoa(4, seed=1))
        position = {node: i for i, node in enumerate(pattern.flow_order())}
        for node_id, node in pattern.nodes.items():
            if node.is_output:
                continue
            for neighbor in pattern.graph.neighbors(node.successor):
                if neighbor == node_id or pattern.nodes[neighbor].is_output:
                    continue
                assert position[node_id] < position[neighbor]


@st.composite
def jcz_patterns(draw, max_qubits=4, max_gates=12):
    """Translated random {J, CZ} circuits."""
    num_qubits = draw(st.integers(1, max_qubits))
    circuit = Circuit(num_qubits, name="front")
    for _ in range(draw(st.integers(0, max_gates))):
        a = draw(st.integers(0, num_qubits - 1))
        b = draw(st.integers(0, num_qubits - 1))
        if a == b or draw(st.booleans()):
            circuit.j(draw(st.sampled_from([0.0, 0.3, math.pi / 2])), a)
        else:
            circuit.cz(a, b)
    return translate_circuit(circuit)


class TestDependencyDAG:
    def test_front_layer_starts_with_inputs(self):
        pattern = translate_circuit(qft(2))
        front = FrontLayer(DependencyDAG(pattern))
        assert set(pattern.inputs) <= front.ready

    def test_front_layer_shrinks_and_grows(self):
        pattern = translate_circuit(qaoa(3, seed=0))
        dag = DependencyDAG(pattern)
        front = FrontLayer(dag)
        for node in dag.topological_order():
            assert node in front.ready
            front.consume(node)
        assert front.ready == set()

    def test_consuming_an_unready_node_raises(self):
        pattern = translate_circuit(qft(2))
        dag = DependencyDAG(pattern)
        front = FrontLayer(dag)
        blocked = next(node for node in pattern.nodes if node not in front.ready)
        with pytest.raises(KeyError):
            front.consume(blocked)

    @given(jcz_patterns(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_incremental_front_matches_scan(self, pattern, data):
        """Along any valid consumption order, the incrementally kept ready
        set equals the full rescan the mapper used to run per layer."""
        dag = DependencyDAG(pattern)
        front = FrontLayer(dag)
        consumed: set[int] = set()
        while True:
            expected = front_layer_scan(dag, consumed)
            assert sorted(front.ready) == expected
            if not expected:
                break
            node = data.draw(st.sampled_from(expected))
            front.consume(node)
            consumed.add(node)
        assert consumed == set(pattern.nodes)

    def test_topological_order_is_valid(self):
        pattern = translate_circuit(vqe(3, seed=0))
        dag = DependencyDAG(pattern)
        position = {n: i for i, n in enumerate(dag.topological_order())}
        for node in pattern.nodes:
            for successor in dag.successors[node]:
                assert position[node] < position[successor]

    def test_depth_at_least_wire_length(self):
        circuit = Circuit(1)
        for _ in range(5):
            circuit.j(0.1, 0)
        dag = DependencyDAG(translate_circuit(circuit))
        assert dag_depth(dag) >= 6  # 5 measured nodes + output


#: Every gate of the vocabulary, with its arity.
ALL_GATES = {**FIXED_GATES, **PARAM_GATES}
#: Angles that hit the peephole (both signed zeros) and the table's
#: constants, plus arbitrary ones.
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, math.pi / 2, -math.pi / 4, 2 * math.pi]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def any_circuits(draw, max_qubits=4, max_gates=16, jcz_only=False):
    """Random circuits over every gate in ``FIXED_GATES`` and
    ``PARAM_GATES`` (or over ``j`` and ``cz`` only)."""
    num_qubits = draw(st.integers(1, max_qubits))
    names = sorted(
        name
        for name, arity in ALL_GATES.items()
        if arity <= num_qubits and (not jcz_only or name in ("j", "cz"))
    )
    circuit = Circuit(num_qubits, name=draw(st.sampled_from(["front", "qft-4"])))
    for _ in range(draw(st.integers(0, max_gates))):
        name = draw(st.sampled_from(names))
        qubits = draw(st.permutations(range(num_qubits)))[: ALL_GATES[name]]
        param = draw(ANGLES) if name in PARAM_GATES else None
        circuit.add(name, *qubits, param=param)
    return circuit


def dumped(pattern) -> str:
    """The pattern's canonical dump as text, so signed zeros compare."""
    return json.dumps(pattern_dump(pattern))


class TestFrontEndOracles:
    """The lowering table and the one-pass translation and DAG against the
    gate-by-gate lowering, the ``GraphState``-call translation and the
    set-based DAG they replaced: identical down to each node's adjacency
    iteration order, which the offline mapper reads."""

    @given(any_circuits(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_lowering_table_matches_gate_lowering(self, circuit, simplify):
        table = to_jcz(circuit, simplify=simplify)
        gates = to_jcz_gates(circuit, simplify=simplify)
        assert table.name == gates.name
        assert [repr(gate) for gate in table] == [repr(gate) for gate in gates]

    @given(any_circuits())
    @settings(max_examples=150, deadline=None)
    def test_translation_matches_gate_translation(self, circuit):
        assert dumped(translate_circuit(circuit)) == dumped(translate_circuit_gates(circuit))

    @given(any_circuits())
    @settings(max_examples=60, deadline=None)
    def test_unsimplified_translation_matches(self, circuit):
        lowered = to_jcz(circuit, simplify=False)
        expected = translate_circuit_gates(to_jcz_gates(circuit, simplify=False))
        assert dumped(translate_circuit(lowered)) == dumped(expected)

    @given(any_circuits(jcz_only=True, max_gates=24))
    @settings(max_examples=100, deadline=None)
    def test_jcz_input_is_translated_as_written(self, circuit):
        """No peephole: ``J(0) J(0)`` on a wire stays two measured nodes."""
        pattern = translate_circuit(circuit)
        assert dumped(pattern) == dumped(translate_circuit_gates(circuit))
        assert pattern.measured_count == circuit.count("j")
        assert pattern.name == f"{circuit.name}:pattern"

    @given(any_circuits(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_dag_matches_set_dag(self, circuit, data):
        pattern = translate_circuit(circuit)
        dag = DependencyDAG(pattern)
        oracle = SetDependencyDAG(pattern)
        assert dag.successors == oracle.successors
        assert dag.indegree == {node: len(p) for node, p in oracle.predecessors.items()}
        assert dag.topological_order() == oracle.topological_order()
        front = FrontLayer(dag)
        done: set[int] = set()
        while True:
            expected = sorted(
                node
                for node, before in oracle.predecessors.items()
                if node not in done and before <= done
            )
            assert sorted(front.ready) == expected
            if not expected:
                break
            node = data.draw(st.sampled_from(expected))
            front.consume(node)
            done.add(node)

    def test_flow_cycle_raises(self):
        """Two measured nodes, each the other's flow successor."""
        pattern = MeasurementPattern(
            graph=GraphState([(0, 1)]),
            nodes={
                0: PatternNode(0, 0, angle=0.0, successor=1),
                1: PatternNode(1, 0, angle=0.0, successor=0),
            },
            inputs=[0],
            outputs=[1],
            name="cycle",
        )
        for build in (DependencyDAG, SetDependencyDAG):
            with pytest.raises(TranslationError, match="cycle"):
                build(pattern)


class TestMBQCExecution:
    @pytest.mark.parametrize(
        "circuit",
        [qft(3), qaoa(4, seed=3), vqe(3, seed=5), rca(4)],
        ids=["qft3", "qaoa4", "vqe3", "rca4"],
    )
    def test_reproduces_circuit_on_zero_input(self, circuit):
        pattern = translate_circuit(circuit)
        rng = np.random.default_rng(42)
        output, outcomes = run_pattern(pattern, input_state=zero_input(pattern), rng=rng)
        assert states_equal_up_to_phase(output, simulate_statevector(circuit))
        assert len(outcomes) == pattern.measured_count

    def test_random_outcomes_still_correct(self):
        """Different RNG seeds give different outcomes, same output state."""
        circuit = qft(2)
        pattern = translate_circuit(circuit)
        reference = simulate_statevector(circuit)
        histories = set()
        for seed in range(6):
            output, outcomes = run_pattern(
                pattern, input_state=zero_input(pattern), rng=np.random.default_rng(seed)
            )
            assert states_equal_up_to_phase(output, reference)
            histories.add(tuple(sorted(outcomes.items())))
        assert len(histories) > 1  # feed-forward genuinely exercised

    def test_postselect_zero_branch(self):
        circuit = qft(2)
        pattern = translate_circuit(circuit)
        output, outcomes = run_pattern(
            pattern, input_state=zero_input(pattern), postselect_zeros=True
        )
        assert set(outcomes.values()) == {0}
        assert states_equal_up_to_phase(output, simulate_statevector(circuit))

    def test_plus_input_default(self):
        """Default input |+...+> equals running the circuit after H-walls."""
        circuit = Circuit(2)
        circuit.cz(0, 1)
        circuit.j(0.0, 0)
        pattern = translate_circuit(circuit)
        output, _ = run_pattern(pattern, rng=np.random.default_rng(0))
        prep = Circuit(2)
        prep.h(0).h(1).cz(0, 1).h(0)
        assert states_equal_up_to_phase(output, simulate_statevector(prep))

    def test_bad_input_shape_rejected(self):
        pattern = translate_circuit(qft(2))
        with pytest.raises(TranslationError):
            run_pattern(pattern, input_state=np.ones(3))

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_random_jcz_circuits_via_mbqc(self, seed):
        rng = np.random.default_rng(seed)
        circuit = Circuit(2, name="rand")
        for _ in range(6):
            if rng.random() < 0.6:
                circuit.j(float(rng.uniform(0, 2 * math.pi)), int(rng.integers(2)))
            else:
                circuit.cz(0, 1)
        pattern = translate_circuit(circuit)
        output, _ = run_pattern(
            pattern, input_state=zero_input(pattern), rng=np.random.default_rng(seed + 1)
        )
        assert states_equal_up_to_phase(output, simulate_statevector(circuit))
