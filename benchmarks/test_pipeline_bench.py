"""Perf-trajectory snapshot for the online hot path and the pass pipeline.

Times ``components()`` against the union-find oracle and ``renormalize``
against the scalar deque-BFS oracle carver behind the product's strip
check (both in ``tests/oracles.py``) on size-48 RSLs (the 4-qubit @ p =
0.75 configuration of Table 1), asserts the vectorized flood fill and the
wavefront path search each hold their >= 3x advantage over those scalar
references, and records the throughputs (plus the qaoa4 per-pass seconds,
including ``online-reshape``) to ``benchmarks/out/BENCH_pipeline.json`` so
later PRs can track the trajectory.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np
from oracles import ScalarCarverStripCheck, components_dsu, renormalize_scalar

from repro.online.percolation import sample_lattice
from repro.online.renormalize import renormalize
from repro.pipeline import Pipeline, PipelineSettings

SNAPSHOT = Path(__file__).parent / "out" / "BENCH_pipeline.json"

RSL_SIZE = 48
TARGET = 4  # node side 12, the paper's p = 0.90 multiplier
REPEATS = 25


PASSES = 3  # best-of-N passes damps scheduler noise on loaded machines


def _throughput(fn, inputs) -> tuple[float, float]:
    """(ops per second, mean milliseconds) for ``fn``, best of ``PASSES``."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for item in inputs:
            fn(item)
        best = min(best, time.perf_counter() - start)
    return len(inputs) / best, best / len(inputs) * 1e3


def test_components_speedup_and_snapshot():
    rng = np.random.default_rng(0)
    lattices = [sample_lattice(RSL_SIZE, 0.75, rng) for _ in range(REPEATS)]

    # Warm-up excludes one-time numpy dispatch costs from the measurement.
    lattices[0].components()
    components_dsu(lattices[0])

    vec_ops, vec_ms = _throughput(lambda lat: lat.components(), lattices)
    dsu_ops, dsu_ms = _throughput(components_dsu, lattices)
    renorm_ops, renorm_ms = _throughput(
        lambda lat: renormalize(lat.copy(), TARGET), lattices
    )
    scalar_ops, scalar_ms = _throughput(
        lambda lat: renormalize_scalar(lat.copy(), TARGET, carver=ScalarCarverStripCheck),
        lattices,
    )

    # One end-to-end compile for per-pass seconds context.
    from repro.circuits import make_benchmark

    result = Pipeline(
        PipelineSettings(fusion_success_rate=0.75, max_rsl=10**5), seed=0
    ).compile(make_benchmark("qaoa", 4, seed=0))

    speedup = vec_ms and dsu_ms / vec_ms
    pathfind_speedup = renorm_ms and scalar_ms / renorm_ms
    snapshot = {
        "rsl_size": RSL_SIZE,
        "bond_probability": 0.75,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "components_vectorized": {"ops_per_s": vec_ops, "mean_ms": vec_ms},
        "components_dsu": {"ops_per_s": dsu_ops, "mean_ms": dsu_ms},
        "components_speedup": speedup,
        "renormalize": {
            "target_size": TARGET,
            "ops_per_s": renorm_ops,
            "mean_ms": renorm_ms,
        },
        "renormalize_scalar_pathfind": {
            "target_size": TARGET,
            "ops_per_s": scalar_ops,
            "mean_ms": scalar_ms,
        },
        "pathfind_speedup": pathfind_speedup,
        "compile_qaoa4_pass_seconds": result.timings_by_pass,
    }
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")

    assert speedup >= 3.0, (
        f"vectorized components() is only {speedup:.1f}x the DSU version "
        f"({vec_ms:.3f} ms vs {dsu_ms:.3f} ms at size {RSL_SIZE})"
    )
    assert pathfind_speedup >= 3.0, (
        f"the wavefront path search is only {pathfind_speedup:.1f}x the "
        f"scalar BFS ({renorm_ms:.3f} ms vs {scalar_ms:.3f} ms per "
        f"renormalize at size {RSL_SIZE})"
    )
