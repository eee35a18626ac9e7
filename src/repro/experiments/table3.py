"""Table 3: the refresh mechanism's memory/#RSL trade (32 GB budget).

Without refresh, the classical memory that tracks stored wires grows with
how long entries wait; a 32 GB budget admits 25-qubit programs but not 64- or
100-qubit ones ('-' rows).  Refreshing every 50 logical layers bounds the
wait and unlocks 100 qubits at a ~10-20 % #RSL overhead.

#RSL here is estimated from the logical layer count via the stable PL ratio
(Fig. 13(b)) — exactly how the artifact's refresh.ipynb computes it, since
running the online pass at the 100-qubit scale is unnecessary for a memory
experiment.  Each cell is two :class:`FnJob`\\ s (budgeted non-refreshed +
refreshed) over a pipeline ablated to ``TranslatePass -> OfflineMapPass``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.circuits.benchmarks import make_benchmark
from repro.errors import MemoryBudgetExceeded
from repro.experiments.api import (
    Experiment,
    ExperimentRecord,
    FnJob,
    Job,
    group_cells,
    register,
)
from repro.pipeline import (
    OfflineMapPass,
    Pipeline,
    PipelineSettings,
    TranslatePass,
    virtual_size_for,
)
from repro.utils.tables import TextTable

FAMILIES = ("qaoa", "qft", "rca", "vqe")

#: The paper's refresh period, in logical layers.
REFRESH_EVERY = 50

#: Assumed RSLs per logical layer when estimating #RSL (Fig. 13(b) plateau).
PL_RATIO = 3.0

#: Our calibrated unit: bytes accounted per stored node per waited layer
#: (see the "Design substitutions" section of ARCHITECTURE.md).
BYTES_PER_NODE_LAYER = 2**20  # 1 MiB

#: The enforced budget, per scale.  At bench scale 1.25 GiB plays the role
#: of the paper's 32 GB: it admits every 9- and 16-qubit mapping without
#: refresh and rejects every 25-qubit one.
SCALE_BUDGET = {"bench": int(1.25 * 2**30), "paper": 32 * 2**30}

SCALE_QUBITS = {
    "bench": (9, 16, 25),
    "paper": (25, 64, 100),
}

#: Refresh periods scale with program size at bench scale so the mechanism
#: triggers often enough on the smaller mappings.
SCALE_REFRESH = {"bench": 10, "paper": REFRESH_EVERY}


def map_case(
    family: str,
    qubits: int,
    refresh_every: int | None,
    budget: int | None,
    seed: int,
) -> dict[str, Any]:
    """Fields for one mapping configuration (one Table 3 half-cell).

    A memory experiment needs no online pass, so the pipeline is ablated to
    the first two stages — exactly the kind of stage surgery the pass
    architecture exists for.  A budget overrun is a *result* here (the
    paper's '-' entries), not a failure.
    """
    circuit = make_benchmark(family, qubits, seed=seed)
    settings = PipelineSettings(
        virtual_size=virtual_size_for(qubits),
        refresh_every=refresh_every,
        memory_budget_bytes=budget,
        bytes_per_node_layer=BYTES_PER_NODE_LAYER,
    )
    pipeline = Pipeline(settings, passes=(TranslatePass(), OfflineMapPass()))
    try:
        ctx = pipeline.run_circuit(circuit, seed=seed)
    except MemoryBudgetExceeded:
        return {
            "budget_exceeded": True,
            "logical_layers": None,
            "peak_memory_bytes": None,
            "rsl_estimate": None,
        }
    result = ctx.require("mapping")
    return {
        "budget_exceeded": False,
        "logical_layers": int(result.layer_count),
        "peak_memory_bytes": int(result.peak_memory_bytes),
        "rsl_estimate": int(result.layer_count * PL_RATIO),
    }


def paired_rows(records: Sequence[ExperimentRecord]) -> list[dict[str, Any]]:
    """Zip each cell's (non-refreshed, refreshed) records into one row."""
    rows = []
    for row, cell in group_cells(records, ("benchmark", "num_qubits")):
        for record in cell:
            fields = record.fields
            prefix = "refreshed" if fields["refreshed"] else "non_refreshed"
            row[f"{prefix}_rsl"] = fields["rsl_estimate"]
            row[f"{prefix}_peak_bytes"] = fields["peak_memory_bytes"]
        row["overhead"] = (
            None
            if row["non_refreshed_rsl"] is None
            else row["refreshed_rsl"] / row["non_refreshed_rsl"] - 1.0
        )
        rows.append(row)
    return rows


@register
class Table3Experiment(Experiment):
    name = "table3"
    description = "refresh mechanism's memory/#RSL trade under a RAM budget"

    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        refresh_every = SCALE_REFRESH[scale]
        budget = SCALE_BUDGET[scale]
        jobs: list[Job] = []
        for family in FAMILIES:
            for qubits in SCALE_QUBITS[scale]:
                benchmark = family.upper()
                for refreshed in (False, True):
                    # The budget is enforced on the non-refreshed run
                    # (producing the paper's '-' rows); the refreshed run
                    # reports its peak so the reduction is visible even
                    # where it lands near the budget.
                    jobs.append(
                        FnJob(
                            key=f"{family}{qubits}/{'refreshed' if refreshed else 'raw'}",
                            meta={
                                "benchmark": benchmark,
                                "num_qubits": qubits,
                                "refreshed": refreshed,
                                "refresh_every": refresh_every if refreshed else None,
                            },
                            fn=map_case,
                            kwargs={
                                "family": family,
                                "qubits": qubits,
                                "refresh_every": refresh_every if refreshed else None,
                                "budget": None if refreshed else budget,
                                "seed": seed,
                            },
                        )
                    )
        return jobs

    def render(self, records: Sequence[ExperimentRecord]) -> str:
        refresh_every = next(
            (
                record.fields["refresh_every"]
                for record in records
                if record.fields.get("refresh_every") is not None
            ),
            REFRESH_EVERY,
        )
        table = TextTable(
            [
                "Benchmark",
                "#Qubits",
                "Non-refreshed #RSL",
                "Refreshed #RSL",
                "Overhead",
                "Peak RAM (no refresh)",
                "Peak RAM (refresh)",
            ],
            title=(
                f"Table 3: refresh every {refresh_every} layers "
                "(budget enforced on the non-refreshed runs)"
            ),
        )
        for row in paired_rows(records):
            table.add_row(
                row["benchmark"],
                row["num_qubits"],
                "-"
                if row["non_refreshed_rsl"] is None
                else f"{row['non_refreshed_rsl']:,}",
                row["refreshed_rsl"],
                "-" if row["overhead"] is None else f"{row['overhead']:+.1%}",
                "-"
                if row["non_refreshed_peak_bytes"] is None
                else f"{row['non_refreshed_peak_bytes'] / 2**30:.1f} GiB",
                f"{row['refreshed_peak_bytes'] / 2**30:.1f} GiB",
            )
        return table.render()
