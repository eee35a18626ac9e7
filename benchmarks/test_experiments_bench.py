"""Perf-trajectory snapshot for the experiments layer.

Times a Table-2-style compile sweep as a per-item ``Pipeline.compile``
loop (how every runner executes compile jobs) and records per-runner
wall-clock for one full experiment, so the trajectory of the compile path
and of the runner layer is visible across PRs.  Everything lands in
``benchmarks/out/BENCH_experiments.json``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.circuits.benchmarks import make_benchmark
from repro.experiments import get_experiment, make_runner
from repro.pipeline import Pipeline, PipelineSettings

SNAPSHOT = Path(__file__).parent / "out" / "BENCH_experiments.json"

FAMILIES = ("qaoa", "qft", "rca", "vqe")
SEEDS = (0, 1, 2)
PASSES = 3  # best-of-N damps scheduler noise on loaded machines

#: The sweep: every family at 4 qubits, three seeds, the p = 0.9 group.
SETTINGS = PipelineSettings(
    fusion_success_rate=0.9, resource_state_size=4, node_side=12, max_rsl=10**5
)


def _best_seconds(fn) -> float:
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_sweep_throughput_snapshot():
    circuits = [
        make_benchmark(family, 4, seed=seed) for family in FAMILIES for seed in SEEDS
    ]
    seeds = [seed for _family in FAMILIES for seed in SEEDS]
    pipeline = Pipeline(SETTINGS)

    # Warm-up: one compile absorbs lazy imports and numpy dispatch.
    pipeline.compile(circuits[0], seed=seeds[0])

    per_item_s = _best_seconds(
        lambda: [
            pipeline.compile(circuit, seed=seed)
            for circuit, seed in zip(circuits, seeds)
        ]
    )
    per_item_ops = len(circuits) / per_item_s

    # One full experiment per runner backend, for the runner-layer trend.
    runner_seconds = {}
    for backend in ("serial", "process"):
        runner = make_runner(backend, max_workers=2)
        start = time.perf_counter()
        get_experiment("fig15").run("bench", seed=0, runner=runner)
        runner_seconds[backend] = time.perf_counter() - start

    snapshot = {
        "sweep": {
            "families": list(FAMILIES),
            "num_qubits": 4,
            "seeds": list(SEEDS),
            "fusion_success_rate": SETTINGS.fusion_success_rate,
            "jobs": len(circuits),
        },
        "python": platform.python_version(),
        "per_item_compile": {"ops_per_s": per_item_ops, "total_s": per_item_s},
        "fig15_bench_runner_seconds": runner_seconds,
    }
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")
