"""Fig. 16: renormalization success rate vs average node size.

The success probability of carving a coarse lattice of a given node size out
of a percolated RSL rises sharply — a sigmoid in the node side — and the
transition point moves left as the fusion success probability grows.  The
"suitable" node size of Fig. 13(a) is where each of these curves saturates.

Each sweep point is one Monte-Carlo :class:`FnJob` on its own derived
stream, so the curve is identical on any runner backend.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.api import Experiment, ExperimentRecord, FnJob, Job, register
from repro.experiments.common import stream_for
from repro.online.percolation import sample_lattice
from repro.online.renormalize import renormalize
from repro.utils.tables import TextTable

#: (RSL size, node sides, fusion rates, trials) per scale.
SCALE_SETTINGS = {
    "bench": (72, (6, 9, 12, 18, 24, 36), (0.66, 0.72, 0.78), 20),
    "paper": (200, (5, 8, 10, 20, 25, 40, 50), (0.66, 0.69, 0.72, 0.75, 0.78), 50),
}


def success_rate(
    rsl_size: int,
    node_side: int,
    fusion_rate: float,
    trials: int,
    rng,
) -> float:
    """Monte-Carlo renormalization success rate at one sweep point."""
    target = max(1, rsl_size // node_side)
    hits = sum(
        renormalize(sample_lattice(rsl_size, fusion_rate, rng), target).success
        for _ in range(trials)
    )
    return hits / trials


def success_rate_case(
    rsl_size: int,
    node_side: int,
    fusion_rate: float,
    trials: int,
    seed: int,
) -> dict[str, Any]:
    """One Fig. 16 point, on its own derived stream."""
    rng = stream_for("fig16", seed).child(rsl_size, node_side, fusion_rate).generator
    return {"success_rate": success_rate(rsl_size, node_side, fusion_rate, trials, rng)}


@register
class Fig16Experiment(Experiment):
    name = "fig16"
    description = "renormalization success rate vs node size and fusion rate"

    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        rsl_size, node_sides, rates, trials = SCALE_SETTINGS[scale]
        return [
            FnJob(
                key=f"p={rate}/node={node}",
                meta={"fusion_rate": rate, "node_side": node, "rsl_size": rsl_size},
                fn=success_rate_case,
                kwargs={
                    "rsl_size": rsl_size,
                    "node_side": node,
                    "fusion_rate": rate,
                    "trials": trials,
                    "seed": seed,
                },
            )
            for rate in rates
            for node in node_sides
        ]

    def render(self, records: Sequence[ExperimentRecord]) -> str:
        rsl_size = records[0].fields["rsl_size"] if records else "?"
        table = TextTable(
            ["Fusion rate", "Node side", "Success rate"],
            title=f"Fig. 16: renormalization success rate ({rsl_size}x{rsl_size} RSL)",
        )
        for record in records:
            table.add_row(
                record.fields["fusion_rate"],
                record.fields["node_side"],
                f"{record.fields['success_rate']:.2f}",
            )
        return table.render()
