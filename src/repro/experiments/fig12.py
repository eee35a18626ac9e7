"""Fig. 12: sensitivity of #RSL to resource state size, RSL size, fusion rate.

Three sweeps over the same compiled benchmarks:

* (a) larger resource states bring more native degree (less merging), so
  #RSL falls as the star size grows from 4 to 7;
* (b) a larger RSL gives the renormalization more raw material, so #RSL
  falls as the hardware grows;
* (c) a higher fusion success probability yields larger renormalized
  lattices, so #RSL falls as the rate rises from 0.66 to 0.78.

Every sweep point is one :class:`CompileJob`; points sharing a settings
object (the families at each x) share one pipeline in the runner.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.api import (
    CompileJob,
    Experiment,
    ExperimentRecord,
    Job,
    register,
)
from repro.pipeline import PipelineSettings
from repro.utils.tables import TextTable

#: (families, qubits, virtual size) per scale.
SCALE_PROGRAM = {
    "bench": (("qaoa", "vqe"), 4, 2),
    "paper": (("qaoa", "qft", "vqe", "rca"), 36, 6),
}

#: Sweep points per scale: (resource sizes, RSL sizes, fusion rates,
#: baseline RSL size (a), RSL size for the rate sweep (c), baseline rate).
#: The bench RSL sizes sit in the regime where the renormalized node size
#: actually constrains success, so the trends are visible at small scale.
SCALE_SWEEPS = {
    "bench": ((4, 5, 6, 7), (28, 36, 48, 60), (0.66, 0.70, 0.75, 0.78), 48, 40, 0.75),
    "paper": (
        (4, 5, 6, 7),
        (42, 60, 84, 108, 120),
        (0.66, 0.69, 0.72, 0.75, 0.78),
        84,
        84,
        0.75,
    ),
}

MAX_RSL = 10**5


def point_settings(
    resource_size: int, rsl_size: int, rate: float, virtual: int
) -> PipelineSettings:
    """The pipeline configuration for one sweep point."""
    return PipelineSettings(
        fusion_success_rate=rate,
        resource_state_size=resource_size,
        rsl_size=rsl_size,
        virtual_size=virtual,
        max_rsl=MAX_RSL,
    )


@register
class Fig12Experiment(Experiment):
    name = "fig12"
    description = "#RSL vs resource state size (a), RSL size (b), fusion rate (c)"

    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        families, qubits, virtual = SCALE_PROGRAM[scale]
        resource_sizes, rsl_sizes, rates, rsl_a, rsl_c, base_rate = SCALE_SWEEPS[scale]
        jobs: list[Job] = []

        def add(panel: str, x: float, family: str, settings: PipelineSettings) -> None:
            jobs.append(
                CompileJob(
                    key=f"{panel}/{family}{qubits}/x={x}",
                    meta={"panel": panel, "x": x, "benchmark": f"{family.upper()}{qubits}"},
                    family=family,
                    num_qubits=qubits,
                    settings=settings,
                    seed=seed,
                )
            )

        for family in families:
            for size in resource_sizes:  # panel (a): hardware fixed, stars vary
                add("a", size, family, point_settings(size, rsl_a, base_rate, virtual))
            for rsl in rsl_sizes:  # panel (b): 7-qubit stars, RSL varies
                # A larger RSL renormalizes to a larger lattice, so the
                # virtual hardware grows with it (Section 7.3): that extra
                # routing space is what cuts #RSL.
                virtual_b = max(virtual, rsl // 14)
                add("b", rsl, family, point_settings(7, rsl, base_rate, virtual_b))
            for rate in rates:  # panel (c): 7-qubit stars, rate varies
                add("c", rate, family, point_settings(7, rsl_c, rate, virtual))
        return jobs

    def render(self, records: Sequence[ExperimentRecord]) -> str:
        table = TextTable(
            ["Panel", "X", "Benchmark", "#RSL"],
            title="Fig. 12: #RSL vs resource state size (a), RSL size (b), fusion rate (c)",
        )
        for record in records:
            fields = record.fields
            table.add_row(
                fields["panel"], fields["x"], fields["benchmark"], fields["rsl_count"]
            )
        return table.render()
