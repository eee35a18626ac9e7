"""Parallel-runner scaling floor: the warm process pool must not lose to
serial.

Without warm pools and chunked dispatch the process runner *lost* to
serial at bench scale, because every run paid pool startup and a pickle
round trip per job.  This bench pins the fix.  A 12-job compile sweep
(four benchmark families x three seeds) runs on both backends with the
pool already warm — the steady state the warm pool registry exists to
provide.

Two gates:

* **Determinism**: canonical records are byte-identical across serial and
  process with the pool warm, chunked, and reused.
* **The floor**: on a multi-core machine the process runner must be at
  least as fast as serial (speedup >= 1.0) — parallelism that subtracts
  performance is the bug the warm pools fixed.  On a single-core machine
  (CI containers are often 1-vCPU) there is no parallel win to have, so
  the floor is the overhead bound instead: warm-pool dispatch may cost
  at most ~15% over serial.  The failure message names ``cpu_count`` so
  a reader knows which regime the number came from.
"""

from __future__ import annotations

import os
import time

from repro.experiments import CompileJob, canonical_json, make_runner
from repro.pipeline import PipelineSettings

FAMILIES = ("qaoa", "qft", "rca", "vqe")
SEEDS = (0, 1, 2)
PASSES = 3  # best-of-N damps scheduler noise on loaded machines
WORKERS = 2

SETTINGS = PipelineSettings(
    fusion_success_rate=0.9, resource_state_size=4, node_side=12, max_rsl=10**5
)

#: Multi-core: the process runner must not lose to serial.
FLOOR_MULTICORE = 1.0
#: Single-core: no parallel win exists; bound the dispatch overhead.
FLOOR_SINGLE_CORE = 0.85

BACKENDS = (
    ("serial", {}),
    ("process", {"max_workers": WORKERS}),
)


def _jobs():
    return [
        CompileJob(
            key=f"{family}4/s{seed}",
            meta={"benchmark": f"{family}-4", "seed_axis": seed},
            family=family,
            num_qubits=4,
            settings=SETTINGS,
            seed=seed,
        )
        for family in FAMILIES
        for seed in SEEDS
    ]


def _run(backend: str, kwargs: dict):
    runner = make_runner(backend, **kwargs)
    return list(runner.iter_jobs(_jobs(), experiment="scaling", scale="bench", seed=0))


def test_scaling_snapshot_and_floor():
    cpu_count = os.cpu_count() or 1

    # Warm-up pass per backend: pools spin up and workers pre-import
    # outside the timed region — steady state is what the registry sells.
    reference = canonical_json(_run("serial", {}))
    for backend, kwargs in BACKENDS[1:]:
        records = _run(backend, kwargs)
        assert canonical_json(records) == reference, (
            f"{backend} records diverged from serial"
        )

    seconds: dict[str, float] = {}
    for backend, kwargs in BACKENDS:
        best = float("inf")
        for _ in range(PASSES):
            start = time.perf_counter()
            records = _run(backend, kwargs)
            best = min(best, time.perf_counter() - start)
        # Warm, chunked, reused — and still byte-identical.
        assert canonical_json(records) == reference, (
            f"{backend} records diverged from serial on a warm pool"
        )
        seconds[backend] = best

    speedups = {
        backend: seconds["serial"] / seconds[backend]
        for backend in seconds
        if backend != "serial"
    }
    floor = FLOOR_MULTICORE if cpu_count >= 2 else FLOOR_SINGLE_CORE
    assert speedups["process"] >= floor, (
        f"process runner lost to serial: {seconds['process']:.3f}s vs "
        f"{seconds['serial']:.3f}s ({speedups['process']:.2f}x, floor "
        f"{floor}x at cpu_count={cpu_count})"
    )
