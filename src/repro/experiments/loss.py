"""Photon-loss sensitivity (extension of Section 5.2's loss discussion).

The paper notes the reshaping process tolerates photon loss: a fusion only
heralds success when *both* photons arrive, so loss at rate ``l`` just scales
the effective fusion success probability by ``(1 - l)^2``, "possibly leading
to more routing layers between logical layers".  This experiment quantifies
that: #RSL as a function of the loss rate, down to where the effective rate
crosses the viability region.

Every point is a :class:`CompileJob`; points sharing a loss rate share a
settings object, so each loss level compiles on one shared pipeline.
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
from repro.hardware.architecture import HardwareConfig
from repro.pipeline import PipelineSettings
from repro.utils.tables import TextTable

#: (families, qubits, virtual size, RSL size, loss rates) per scale.
SCALE_SETTINGS = {
    "bench": (("qaoa", "vqe"), 4, 2, 44, (0.0, 0.01, 0.02, 0.04)),
    "paper": (("qaoa", "qft", "vqe", "rca"), 36, 6, 132, (0.0, 0.01, 0.02, 0.04, 0.06)),
}

FUSION_RATE = 0.78


def effective_rate(loss: float, fusion_rate: float = FUSION_RATE) -> float:
    """Convenience: the (1 - l)^2-scaled rate (used by tests and records)."""
    return HardwareConfig(
        fusion_success_rate=fusion_rate, photon_loss_rate=loss
    ).effective_fusion_rate


@register
class LossExperiment(Experiment):
    name = "loss"
    description = "photon-loss sensitivity: #RSL vs loss rate (extension)"

    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        families, qubits, virtual, rsl_size, loss_rates = SCALE_SETTINGS[scale]
        jobs: list[Job] = []
        # Family-outer keeps each benchmark's loss curve contiguous in the
        # rendered table; equal settings objects still hash together, so the
        # runner shares one pipeline per loss rate regardless.
        for family in families:
            for loss_rate in loss_rates:
                settings = PipelineSettings(
                    fusion_success_rate=FUSION_RATE,
                    resource_state_size=7,
                    rsl_size=rsl_size,
                    virtual_size=virtual,
                    photon_loss_rate=loss_rate,
                    max_rsl=10**5,
                )
                jobs.append(
                    CompileJob(
                        key=f"{family}{qubits}/loss={loss_rate}",
                        meta={
                            "benchmark": f"{family.upper()}{qubits}",
                            "loss_rate": loss_rate,
                            "effective_rate": effective_rate(loss_rate),
                        },
                        family=family,
                        num_qubits=qubits,
                        settings=settings,
                        seed=seed,
                    )
                )
        return jobs

    def render(self, records: Sequence[ExperimentRecord]) -> str:
        table = TextTable(
            ["Benchmark", "Loss rate", "Effective fusion rate", "#RSL", "PL ratio"],
            title="Photon-loss sensitivity (loss scales the fusion rate by (1-l)^2)",
        )
        for record in records:
            fields = record.fields
            table.add_row(
                fields["benchmark"],
                fields["loss_rate"],
                f"{fields['effective_rate']:.3f}",
                fields["rsl_count"],
                f"{fields['pl_ratio']:.2f}",
            )
        return table.render()
