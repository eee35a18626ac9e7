"""Table 2: OnePerc vs OneQ (#RSL and #fusion) across benchmarks and rates.

The paper's headline result: with a repeat-until-success strategy OneQ only
functions for tiny programs at hyper-advanced fusion rates; OnePerc compiles
everything at the practical rate 0.75, with the #RSL advantage growing with
program size.  OnePerc spends *more* fusions than OneQ on 4-qubit programs
(the percolation overhead) and wins on both metrics at scale.

Each cell is two :class:`CompileJob`\\ s (OnePerc + the OneQ baseline); one
settings object serves every benchmark of a (rate, cap, node side) group, so
runners compile each group on one shared pipeline.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.api import (
    CompileJob,
    Experiment,
    ExperimentRecord,
    Job,
    group_cells,
    register,
)
from repro.experiments.common import BenchmarkCase
from repro.pipeline import PipelineSettings
from repro.utils.tables import TextTable

FAMILIES = ("qaoa", "qft", "rca", "vqe")

#: (fusion rate, qubit counts, #RSL cap, node side) per scale.
SCALE_SETTINGS = {
    "bench": [
        (0.90, (4,), 10**5, 12),
        (0.75, (4, 9), 10**5, 16),
    ],
    "paper": [
        (0.90, (4, 9, 25), 10**6, 12),
        (0.75, (4, 25, 64), 10**6, 24),
    ],
}


def group_settings(fusion_rate: float, rsl_cap: int, node_side: int) -> PipelineSettings:
    """One settings object serves every benchmark of a (rate, cap, node side)
    group; the RSL side resolves per circuit from ``node_side``."""
    return PipelineSettings(
        fusion_success_rate=fusion_rate,
        resource_state_size=4,  # the main experiment's resource states
        node_side=node_side,
        max_rsl=rsl_cap,
    )


def paired_rows(records: Sequence[ExperimentRecord]) -> list[dict[str, Any]]:
    """Zip each cell's (OnePerc, OneQ) records into one comparison row."""
    rows = []
    for row, cell in group_cells(records, ("fusion_rate", "benchmark")):
        for record in cell:
            fields = record.fields
            prefix = fields["compiler"]  # "oneperc" | "oneq"
            row[f"{prefix}_rsl"] = fields["rsl_count"]
            row[f"{prefix}_fusions"] = fields["fusion_count"]
            if prefix == "oneq":
                row["oneq_capped"] = fields["capped"]
        row["rsl_improvement"] = row["oneq_rsl"] / max(1, row["oneperc_rsl"])
        row["fusion_improvement"] = row["oneq_fusions"] / max(1, row["oneperc_fusions"])
        rows.append(row)
    return rows


@register
class Table2Experiment(Experiment):
    name = "table2"
    description = "OnePerc vs OneQ (#RSL and #fusion) across benchmarks and rates"

    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        jobs: list[Job] = []
        for fusion_rate, qubit_counts, cap, node_side in SCALE_SETTINGS[scale]:
            settings = group_settings(fusion_rate, cap, node_side)
            for qubits in qubit_counts:
                for family in FAMILIES:
                    case = BenchmarkCase(family, qubits)
                    for baseline in (False, True):
                        compiler = "oneq" if baseline else "oneperc"
                        jobs.append(
                            CompileJob(
                                key=f"{fusion_rate}/{case.label}/{compiler}",
                                meta={
                                    "fusion_rate": fusion_rate,
                                    "benchmark": case.label,
                                    "compiler": compiler,
                                },
                                family=family,
                                num_qubits=qubits,
                                settings=settings,
                                seed=seed,
                                baseline=baseline,
                            )
                        )
        return jobs

    def render(self, records: Sequence[ExperimentRecord]) -> str:
        table = TextTable(
            [
                "Rate",
                "Benchmark",
                "OneQ #RSL",
                "OnePerc #RSL",
                "#RSL Improv.",
                "OneQ #Fusion",
                "OnePerc #Fusion",
                "#Fusion Improv.",
            ],
            title="Table 2: OnePerc vs OneQ (repeat-until-success)",
        )
        for row in paired_rows(records):
            oneq_rsl = (
                f">{row['oneq_rsl']:,}" if row["oneq_capped"] else f"{row['oneq_rsl']:,}"
            )
            table.add_row(
                row["fusion_rate"],
                row["benchmark"],
                oneq_rsl,
                row["oneperc_rsl"],
                f"{row['rsl_improvement']:,.2f}",
                row["oneq_fusions"],
                row["oneperc_fusions"],
                f"{row['fusion_improvement']:.3g}",
            )
        return table.render()
