"""Fig. 13: scalability — node size stability, PL ratio plateau, modularity.

* (a) the smallest average node size whose renormalization success rate
  approaches 1 is (near-)flat in the RSL size and smaller at higher fusion
  rates;
* (b) the ratio of consumed RSLs to logical layers plateaus as programs
  grow (around 3 in the paper), making resource consumption predictable;
* (c) modular renormalization yields ~60 % of the unlimited-time
  non-modular lattice but several times more than the *time-restricted*
  non-modular run, with the MI ratio sweet spot around 7.

Panels (a) and (c) are Monte-Carlo :class:`FnJob`\\ s, each deriving its own
random stream from (seed, panel, sweep point) so any runner backend yields
the same records; panel (b) is one settings group of
:class:`CompileJob`\\ s sharing a pipeline.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ReproError
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

#: Success-rate threshold for "approaches 1" when picking node sizes.
SUITABLE_SUCCESS = 0.9

SCALE_13A = {
    "bench": ((36, 48, 72), (0.66, 0.72, 0.78), 10),
    "paper": ((48, 96, 144, 192, 240, 300), (0.66, 0.72, 0.78), 30),
}
SCALE_13B = {
    "bench": (("qaoa", "vqe"), (4, 9), 0.75),
    "paper": (("qaoa", "qft", "vqe", "rca"), (4, 9, 16, 25, 36), 0.75),
}
SCALE_13C = {
    "bench": (96, 12, (4, 9, 16), (2, 4, 7, 14, 19), 0.75, 5),
    "paper": (192, 12, (4, 9, 16), (2, 4, 7, 14, 19), 0.75, 10),
}

#: The modular setting whose wall work budgets the time-restricted run.
BUDGET_MODULES = 4
BUDGET_MI = 7


def suitable_node_size(
    rsl_size: int,
    rate: float,
    trials: int,
    rng,
    threshold: float = SUITABLE_SUCCESS,
) -> int:
    """Smallest node side whose renormalization success rate >= threshold.

    Mirrors Fig. 13(a)'s definition: the node size at which Fig. 16's curve
    approaches 1.  A node size stops renormalizing once the outcome is
    settled — enough hits to pass, or too few trials left to — but every
    trial's lattice is still sampled, so ``rng`` ends where running every
    trial would leave it.
    """
    for node in range(4, rsl_size + 1, 2):
        target = rsl_size // node
        if target < 1:
            break
        hits = 0
        for trial in range(trials):
            lattice = sample_lattice(rsl_size, rate, rng)
            passed = hits / trials >= threshold
            failed = (hits + trials - trial) / trials < threshold
            if not (passed or failed):
                hits += renormalize(lattice, target).success
        if hits / trials >= threshold:
            return node
    return rsl_size


def suitable_node_size_case(
    rsl_size: int, rate: float, trials: int, seed: int
) -> dict[str, Any]:
    """One Fig. 13(a) point, on its own derived stream."""
    rng = stream_for("fig13", seed).child("a", rsl_size, rate).generator
    return {"node_side": suitable_node_size(rsl_size, rate, trials, rng)}


def _averaged(fn, rsl: int, rate: float, trials: int, rng) -> tuple[float, float]:
    """Mean (size, work) of ``fn(lattice)`` over freshly sampled lattices."""
    sizes, works = [], []
    for _ in range(trials):
        size, work = fn(sample_lattice(rsl, rate, rng))
        sizes.append(size)
        works.append(work)
    return float(np.mean(sizes)), float(np.mean(works))


def _renorm_stats(outcome) -> tuple[int, int]:
    """(achieved node count, visited-site work) of a non-modular outcome."""
    return outcome.lattice_size**2, outcome.visited_sites


def _modular_stats(outcome) -> tuple[int, int]:
    """(achieved node count, concurrent wall work) of a modular outcome."""
    return outcome.node_count, outcome.wall_visited_sites


def _modular_means(
    rsl: int,
    node: int,
    modules: int,
    mi_ratio: float,
    rate: float,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    rng = stream_for("fig13", seed).child("c", "modular", modules, mi_ratio).generator
    return _averaged(
        lambda lat: _modular_stats(modular_renormalize(lat, node, modules, mi_ratio)),
        rsl,
        rate,
        trials,
        rng,
    )


def panel_c_unlimited(rsl: int, node: int, rate: float, trials: int, seed: int):
    rng = stream_for("fig13", seed).child("c", "unlimited").generator
    nodes_mean, wall = _averaged(
        lambda lat: _renorm_stats(renormalize(lat, rsl // node)),
        rsl,
        rate,
        trials,
        rng,
    )
    return {"setting": "non-modular (unlimited)", "nodes_mean": nodes_mean, "wall_work": wall}


def panel_c_modular(
    rsl: int,
    node: int,
    modules: int,
    mi_ratio: float,
    rate: float,
    trials: int,
    seed: int,
):
    nodes_mean, wall = _modular_means(rsl, node, modules, mi_ratio, rate, trials, seed)
    return {
        "setting": f"modules={modules} MI={mi_ratio}",
        "nodes_mean": nodes_mean,
        "wall_work": wall,
    }


def panel_c_restricted(rsl: int, node: int, rate: float, trials: int, seed: int):
    """Time-restricted non-modular: same wall budget as the 4-module MI=7 run.

    The budget is recomputed here on the *same derived stream* as that
    modular job, so this job stays self-contained (no cross-job data flow)
    while using the identical budget value on every runner backend.
    """
    _nodes, budget = _modular_means(rsl, node, BUDGET_MODULES, BUDGET_MI, rate, trials, seed)
    rng = stream_for("fig13", seed).child("c", "restricted").generator
    nodes_mean, wall = _averaged(
        lambda lat: _renorm_stats(renormalize(lat, rsl // node, work_budget=int(budget))),
        rsl,
        rate,
        trials,
        rng,
    )
    return {
        "setting": "non-modular (restricted)",
        "nodes_mean": nodes_mean,
        "wall_work": wall,
    }


@register
class Fig13Experiment(Experiment):
    name = "fig13"
    description = "node-size stability, PL-ratio plateau, modularity overhead"

    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        jobs: list[Job] = []

        # (a) suitable node size vs RSL size and rate.
        rsl_sizes, rates, trials = SCALE_13A[scale]
        for rate in rates:
            for rsl in rsl_sizes:
                jobs.append(
                    FnJob(
                        key=f"a/p={rate}/rsl={rsl}",
                        meta={"panel": "a", "fusion_rate": rate, "rsl_size": rsl},
                        fn=suitable_node_size_case,
                        kwargs={
                            "rsl_size": rsl,
                            "rate": rate,
                            "trials": trials,
                            "seed": seed,
                        },
                    )
                )

        # (b) PL ratio vs program size.  Node side 10 puts the
        # renormalization in the regime where per-RSL success is genuinely
        # probabilistic (the paper's PL plateau near 3 reflects that regime,
        # not a comfortable oversized node).  One settings object covers the
        # whole sweep, so the runner compiles it on a single pipeline.
        families, qubit_counts, rate_b = SCALE_13B[scale]
        settings = PipelineSettings(
            fusion_success_rate=rate_b,
            resource_state_size=7,
            node_side=10,
            max_rsl=10**5,
        )
        for family in families:
            for qubits in qubit_counts:
                jobs.append(
                    CompileJob(
                        key=f"b/{family}{qubits}",
                        meta={
                            "panel": "b",
                            "benchmark": family.upper(),
                            "num_qubits": qubits,
                        },
                        family=family,
                        num_qubits=qubits,
                        settings=settings,
                        seed=seed,
                    )
                )

        # (c) modular vs non-modular renormalized size and work.
        rsl, node, module_counts, mi_ratios, rate_c, trials_c = SCALE_13C[scale]
        if BUDGET_MODULES not in module_counts or BUDGET_MI not in mi_ratios:
            # The restricted run budgets itself against this setting's wall
            # work; if the sweep stops covering it, fail loudly rather than
            # compare against a configuration absent from the table.
            raise ReproError(
                f"fig13 panel (c) sweep must include modules={BUDGET_MODULES} "
                f"MI={BUDGET_MI}, the time-restricted run's budget reference"
            )
        base_c = {"rsl": rsl, "node": node, "rate": rate_c, "trials": trials_c, "seed": seed}
        jobs.append(
            FnJob(
                key="c/non-modular-unlimited",
                meta={"panel": "c"},
                fn=panel_c_unlimited,
                kwargs=dict(base_c),
            )
        )
        for modules in module_counts:
            for mi in mi_ratios:
                jobs.append(
                    FnJob(
                        key=f"c/modules={modules}/mi={mi}",
                        meta={"panel": "c"},
                        fn=panel_c_modular,
                        kwargs={**base_c, "modules": modules, "mi_ratio": mi},
                    )
                )
        jobs.append(
            FnJob(
                key="c/non-modular-restricted",
                meta={"panel": "c"},
                fn=panel_c_restricted,
                kwargs=dict(base_c),
            )
        )
        return jobs

    def render(self, records: Sequence[ExperimentRecord]) -> str:
        parts = []
        table_a = TextTable(
            ["Fusion rate", "RSL size", "Suitable node side"],
            title="Fig. 13(a): stable node size",
        )
        for record in records:
            if record.fields.get("panel") == "a":
                table_a.add_row(
                    record.fields["fusion_rate"],
                    record.fields["rsl_size"],
                    record.fields["node_side"],
                )
        parts.append(table_a.render())

        table_b = TextTable(
            ["Benchmark", "#Qubits", "PL ratio"],
            title="Fig. 13(b): RSL per logical layer",
        )
        for record in records:
            if record.fields.get("panel") == "b":
                table_b.add_row(
                    record.fields["benchmark"],
                    record.fields["num_qubits"],
                    f"{record.fields['pl_ratio']:.2f}",
                )
        parts.append(table_b.render())

        table_c = TextTable(
            ["Setting", "Renormalized nodes", "Wall work (visited sites)"],
            title="Fig. 13(c): modularity overhead",
        )
        for record in records:
            if record.fields.get("panel") == "c":
                table_c.add_row(
                    record.fields["setting"],
                    f"{record.fields['nodes_mean']:.1f}",
                    f"{record.fields['wall_work']:,.0f}",
                )
        parts.append(table_c.render())
        return "\n\n".join(parts)
