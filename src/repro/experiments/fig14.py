"""Fig. 14: online processing time per RSL.

* (a) seconds-per-RSL is flat in the *program* size (the online pass is
  program-agnostic: its work depends on the RSL, not on what runs on it);
* (b) seconds-per-RSL grows with the RSL size and is cut substantially by
  modular renormalization (4/9/16 modules).

We report wall-clock seconds like the paper (compiler implemented in
Python both here and there), plus the deterministic visited-sites proxy so
the trend is machine-independent.  Wall-clock values live in the records'
``timings`` (excluded from determinism comparisons); the visited-sites
proxy and the concurrency factor are deterministic fields.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.experiments.api import (
    CompileJob,
    Experiment,
    ExperimentRecord,
    FnJob,
    Job,
    register,
)
from repro.experiments.common import stream_for
from repro.online.modular import modular_renormalize
from repro.online.percolation import sample_lattice
from repro.online.renormalize import renormalize
from repro.pipeline import PipelineSettings
from repro.utils.tables import TextTable

SCALE_14A = {
    "bench": (("qaoa", "vqe"), (4, 9), 36, 0.75),
    "paper": (("qaoa", "qft", "vqe", "rca"), (4, 9, 16, 25, 36), 96, 0.75),
}
SCALE_14B = {
    "bench": ((48, 72, 96), 12, (1, 4, 9, 16), 7.0, 0.75, 5),
    "paper": ((96, 144, 192, 240), 24, (1, 4, 9, 16), 7.0, 0.75, 10),
}


def online_attempts(
    rsl: int,
    node: int,
    modules: int,
    mi_ratio: float,
    rate: float,
    trials: int,
    seed: int,
) -> tuple[dict[str, Any], dict[str, float]]:
    """One Fig. 14(b) point: timed renormalization attempts on fresh RSLs.

    Returns deterministic fields (visited-sites proxy, concurrency factor)
    plus a wall-clock timing.  Modules renormalize concurrently on hardware;
    our process runs them serially, so the concurrent wall-clock is
    estimated from the work split.
    """
    rng = stream_for("fig14", seed).child("b", rsl, modules).generator
    seconds = 0.0
    wall_visited = 0.0
    total_visited = 0.0
    for _ in range(trials):
        lattice = sample_lattice(rsl, rate, rng)
        start = time.perf_counter()
        if modules == 1:
            outcome = renormalize(lattice, max(1, rsl // node))
            wall_visited += outcome.visited_sites
            total_visited += outcome.visited_sites
        else:
            outcome = modular_renormalize(lattice, node, modules, mi_ratio)
            wall_visited += outcome.wall_visited_sites
            total_visited += outcome.total_visited_sites
        seconds += time.perf_counter() - start
    concurrency = wall_visited / total_visited if total_visited else 1.0
    fields = {
        "visited_per_attempt": wall_visited / trials,
        "concurrency": concurrency,
    }
    timings = {"concurrent_seconds": seconds / trials * concurrency}
    return fields, timings


def seconds_per_rsl(record: ExperimentRecord) -> float:
    """Fig. 14(a)'s metric, from a compile record's online-pass timer.

    A missing ``online-reshape`` timer is a schema drift (renamed pass,
    ablated chain) and raises rather than reading as a 0-second measurement.
    """
    rsl_count = record.fields["rsl_count"]
    if not rsl_count:
        return float("nan")
    return record.timings["online-reshape"] / rsl_count


@register
class Fig14Experiment(Experiment):
    name = "fig14"
    description = "online seconds per RSL vs program size and RSL size/modularity"

    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        jobs: list[Job] = []

        families, qubit_counts, rsl_size, rate = SCALE_14A[scale]
        settings = PipelineSettings(
            fusion_success_rate=rate,
            resource_state_size=7,
            rsl_size=rsl_size,
            virtual_size=2,
            max_rsl=10**5,
        )
        for family in families:
            for qubits in qubit_counts:
                jobs.append(
                    CompileJob(
                        key=f"a/{family}{qubits}",
                        meta={"panel": "a", "benchmark": f"{family.upper()}{qubits}"},
                        family=family,
                        num_qubits=qubits,
                        settings=settings,
                        seed=seed,
                    )
                )

        rsl_sizes, node, module_counts, mi_ratio, rate_b, trials = SCALE_14B[scale]
        for rsl in rsl_sizes:
            for modules in module_counts:
                jobs.append(
                    FnJob(
                        key=f"b/rsl={rsl}/modules={modules}",
                        meta={"panel": "b", "rsl_size": rsl, "modules": modules},
                        fn=online_attempts,
                        kwargs={
                            "rsl": rsl,
                            "node": node,
                            "modules": modules,
                            "mi_ratio": mi_ratio,
                            "rate": rate_b,
                            "trials": trials,
                            "seed": seed,
                        },
                    )
                )
        return jobs

    def render(self, records: Sequence[ExperimentRecord]) -> str:
        parts = []
        table_a = TextTable(
            ["Program", "Seconds per RSL"],
            title="Fig. 14(a): online time per RSL vs program size",
        )
        for record in records:
            if record.fields.get("panel") == "a":
                table_a.add_row(
                    record.fields["benchmark"], f"{seconds_per_rsl(record):.4f}"
                )
        parts.append(table_a.render())

        table_b = TextTable(
            ["RSL size", "Modules", "Concurrent seconds", "Visited sites (wall)"],
            title="Fig. 14(b): online time per RSL vs RSL size and modularity",
        )
        for record in records:
            if record.fields.get("panel") == "b":
                table_b.add_row(
                    record.fields["rsl_size"],
                    record.fields["modules"],
                    f"{record.timings['concurrent_seconds']:.4f}",
                    f"{record.fields['visited_per_attempt']:,.0f}",
                )
        parts.append(table_b.render())
        return "\n\n".join(parts)
