"""Domain scenario: sizing photonic hardware for a VQE workload.

A chemistry team wants to run hardware-efficient VQE ansaetze (the paper's
full-entanglement benchmark) on a fusion-based photonic machine and needs to
know: how do #RSL (wall-clock) and #fusion (error exposure) scale with the
molecule's qubit count, and what does a better fusion module buy?

Run:  python examples/vqe_molecule_workflow.py
"""

from repro.circuits import vqe
from repro.mbqc import translate_circuit
from repro.mbqc.translate import pattern_size_summary
from repro.pipeline import Pipeline, PipelineSettings
from repro.utils.tables import TextTable


def main() -> None:
    print("=== VQE program sizes after MBQC translation ===")
    sizes = TextTable(["qubits", "graph nodes", "graph edges", "measured qubits"])
    for qubits in (4, 9, 16):
        summary = pattern_size_summary(translate_circuit(vqe(qubits, seed=0)))
        sizes.add_row(qubits, summary["nodes"], summary["edges"], summary["measured"])
    print(sizes)
    print()

    print("=== Compilation cost vs molecule size (p = 0.75, 4-qubit stars) ===")
    cost = TextTable(["qubits", "#RSL", "#fusion", "logical layers", "PL ratio"])
    for qubits in (4, 9, 16):
        compiler = Pipeline(
            PipelineSettings(
                fusion_success_rate=0.75, resource_state_size=4, max_rsl=10**5
            ),
            seed=1,
        )
        result = compiler.compile(vqe(qubits, seed=0))
        cost.add_row(
            qubits,
            result.rsl_count,
            result.fusion_count,
            result.logical_layers,
            f"{result.pl_ratio:.1f}",
        )
    print(cost)
    print()

    print("=== What does a better fusion module buy? (VQE-9) ===")
    upgrade = TextTable(["fusion rate", "#RSL", "#fusion"])
    for rate in (0.70, 0.75, 0.78, 0.90):
        compiler = Pipeline(
            PipelineSettings(
                fusion_success_rate=rate, resource_state_size=4, max_rsl=10**5
            ),
            seed=1,
        )
        result = compiler.compile(vqe(9, seed=0))
        upgrade.add_row(rate, result.rsl_count, result.fusion_count)
    print(upgrade)
    print()
    print(
        "Reading: #RSL sets execution time (1 RSL ~ 1 ns at GHz RSG clocks),\n"
        "#fusion sets the error budget; both improve with the fusion rate,\n"
        "and OnePerc keeps them finite even at the practical 0.75."
    )


if __name__ == "__main__":
    main()
