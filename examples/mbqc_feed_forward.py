"""MBQC semantics end to end: translation, feed-forward, and validation.

Shows the machinery the compiler is built on: a circuit becomes a
measurement pattern on a program graph state; executing it with *random*
measurement outcomes and flow corrections reproduces the circuit exactly.

Run:  python examples/mbqc_feed_forward.py
"""

import numpy as np

from repro.circuits import qft, simulate_statevector, states_equal_up_to_phase
from repro.mbqc import DependencyDAG, FrontLayer, run_pattern, translate_circuit


def main() -> None:
    circuit = qft(3)
    pattern = translate_circuit(circuit)
    print(f"circuit: {circuit.name} ({circuit.num_qubits} qubits, {len(circuit)} gates)")
    print(
        f"pattern: {pattern.node_count} graph-state qubits, "
        f"{pattern.graph.edge_count} edges, {pattern.measured_count} measured"
    )

    dag = DependencyDAG(pattern)
    front = FrontLayer(dag)
    print(
        f"dependency DAG: {sum(dag.indegree.values())} flow constraints, "
        f"{len(front.ready)} nodes in the first front layer (it drives the mapper)"
    )
    print()

    zero = np.zeros(2**3, dtype=complex)
    zero[0] = 1.0
    reference = simulate_statevector(circuit)

    print("five random-outcome executions (feed-forward corrects each):")
    for seed in range(5):
        output, outcomes = run_pattern(
            pattern, input_state=zero, rng=np.random.default_rng(seed)
        )
        ones = sum(outcomes.values())
        ok = states_equal_up_to_phase(output, reference)
        print(
            f"  seed {seed}: {ones:2d}/{len(outcomes)} outcomes were 1 -> "
            f"output {'matches' if ok else 'DIVERGES FROM'} the circuit"
        )

    print()
    print("the same pattern, postselected on all-zero outcomes (no corrections):")
    output, _ = run_pattern(pattern, input_state=zero, postselect_zeros=True)
    print(f"  matches: {states_equal_up_to_phase(output, reference)}")


if __name__ == "__main__":
    main()
