"""The ``passes`` ablation: pattern rewrite on/off as a registry axis.

Every built-in family is lowered to {J, CZ} *without* peephole
simplification (``to_jcz(..., simplify=False)``) — the shape an external
front end that missed its local optimizations would hand the pipeline —
then translated, and measured with the rewrite pass on and off.  The
deterministic fields are the node counts before/after contraction, the
shrink percentage, and the logical layer count after offline mapping,
which is how the shrink propagates into online work (fewer layers = fewer
RSLs consumed).  The rewrite's own wall clock rides in the timings (out of
band, like every timing).

``runner`` is an execution knob (byte-identical records), while here
``rewrite`` is swept as a *field*, so the records quantify what the
default chain's rewrite pass buys on input that needs it.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.experiments.api import Experiment, ExperimentRecord, FnJob, Job, register
from repro.utils.tables import TextTable

SCALE_PASSES = {
    "bench": (("qaoa", "qft"), (4,)),
    "paper": (("qaoa", "qft", "rca", "vqe"), (4, 9)),
}


def rewrite_ablation(
    family: str, qubits: int, seed: int, rewrite: str
) -> tuple[dict[str, Any], dict[str, float]]:
    """One cell: translate the unsimplified lowering, optionally rewrite.

    Deterministic throughout — the lowering, the contraction, and the
    offline mapper derive nothing from global state — so records are
    byte-identical on every runner backend.
    """
    from repro.circuits.benchmarks import make_benchmark
    from repro.circuits.jcz import to_jcz
    from repro.mbqc.optimize import optimize_pattern
    from repro.mbqc.translate import translate_circuit
    from repro.offline.mapper import OfflineMapper

    circuit = to_jcz(make_benchmark(family, qubits, seed=seed), simplify=False)
    pattern = translate_circuit(circuit)
    nodes_raw = pattern.node_count
    contracted = 0
    start = time.perf_counter()
    if rewrite == "on":
        contracted = optimize_pattern(pattern).contracted_pairs
    rewrite_seconds = time.perf_counter() - start
    nodes = pattern.node_count
    mapping = OfflineMapper(width=2).map_pattern(pattern)
    fields = {
        "benchmark": f"{family.upper()}{qubits}",
        "rewrite": rewrite,
        "nodes_raw": nodes_raw,
        "nodes": nodes,
        "contracted_pairs": contracted,
        "shrink_pct": round(100.0 * (nodes_raw - nodes) / nodes_raw, 2),
        "logical_layers": mapping.layer_count,
    }
    return fields, {"rewrite_seconds": rewrite_seconds}


@register
class PassesAblationExperiment(Experiment):
    name = "passes"
    description = "pattern-rewrite ablation: node shrink and layer effect, on vs off"

    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        families, qubit_counts = SCALE_PASSES[scale]
        jobs: list[Job] = []
        for family in families:
            for qubits in qubit_counts:
                for rewrite in ("off", "on"):
                    jobs.append(
                        FnJob(
                            key=f"{family}{qubits}/rewrite={rewrite}",
                            meta={},
                            fn=rewrite_ablation,
                            kwargs={
                                "family": family,
                                "qubits": qubits,
                                "seed": seed,
                                "rewrite": rewrite,
                            },
                        )
                    )
        return jobs

    def render(self, records: Sequence[ExperimentRecord]) -> str:
        table = TextTable(
            ["Benchmark", "Rewrite", "Nodes", "Contracted", "Shrink %", "Layers"],
            title="Pass ablation: pattern rewrite on vs off (unsimplified lowering)",
        )
        for record in records:
            table.add_row(
                record.fields["benchmark"],
                record.fields["rewrite"],
                f"{record.fields['nodes']}",
                f"{record.fields['contracted_pairs']}",
                f"{record.fields['shrink_pct']:.1f}",
                f"{record.fields['logical_layers']}",
            )
        return table.render()
