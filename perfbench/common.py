"""Shared pieces: repo paths, the operation tally, statistics, the warm probe."""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from functools import lru_cache
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything a run writes lives here (gitignored): results and scratch.
OUT = ROOT / ".perfbench"

#: The tiny compile every set-up performs once, paying the lazy imports
#: (scipy's frontier engine among them).  Its rate is in no workload's
#: plan, so it never shares a cache key with a measured request.
WARMUP = {"benchmark": "qaoa", "qubits": 4, "rate": 0.8, "seed": 0}

#: The repeated small compile behind ``warm_*`` on reproduce-bench, which
#: has no cache: the same request again in a warmed process.  Tiny (about
#: 6 ms), so it is mostly per-compile fixed overhead, and fixed, so its
#: latency does not vary with the workload seed.
PROBE = {"benchmark": "qaoa", "qubits": 2, "rate": 0.9, "seed": 0}

#: Input seeds on which every operation of every workload succeeds
#: (``vet_seeds.py``).  Some seeds hit a mapper defect and are left out.
SEED_POOL = json.loads((HERE / "expected" / "seeds.json").read_text())["seeds"]


def input_seed(seed: int) -> int:
    """The input seed for workload seed ``seed``: 0 -> 0, 1 -> 1, ..."""
    return SEED_POOL[seed % len(SEED_POOL)]


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Tally:
    """Operations attempted and failed; a failure is printed with its cause.

    An operation that raised or failed several output checks counts once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._op_failed = False

    def op(self) -> None:
        self.attempted += 1
        self._op_failed = False

    def fail(self, what: str, exc: BaseException | None = None) -> None:
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)
        if exc is not None:
            traceback.print_exception(exc, file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        """An output check on an operation already counted; ``False`` fails it."""
        if not ok:
            self.fail(what)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@lru_cache(maxsize=1)
def _reference_inputs():
    """A fixed 120x120 grid with 75% of its bonds kept, and a 120x120 array."""
    import numpy as np
    from scipy.sparse import csr_matrix

    n = 120
    index = np.arange(n * n).reshape(n, n)
    rows = np.concatenate([index[:, :-1].ravel(), index[:-1, :].ravel()])
    cols = np.concatenate([index[:, 1:].ravel(), index[1:, :].ravel()])
    keep = np.random.default_rng(0).random(rows.size) < 0.75
    graph = csr_matrix((np.ones(keep.sum()), (rows[keep], cols[keep])), shape=(n * n, n * n))
    return graph + graph.T, np.random.default_rng(1).random((n, n))


def reference_loop() -> None:
    """The fixed unit of work behind ``ref`` (about 1.2 ms on a 2-vCPU VM).

    A breadth-first search over a bond-percolated 120x120 grid and a few
    array reductions: the kind of work the online pass does, in code the
    program does not own, so no change to the program changes its cost;
    only the host's speed does.  It tracks the program's speed better than
    a pure-Python loop does (5 seeds of reproduce-bench: IQR over median of
    the cold-job p50 0.07 with this loop, 0.14 with the Python loop, 0.42
    unnormalized).
    """
    from scipy.sparse.csgraph import breadth_first_order

    graph, values = _reference_inputs()
    breadth_first_order(graph, 0, directed=False, return_predecessors=False)
    (values > 0.25).sum()
    values.cumsum(axis=0)
    values[0].argsort()


class HostClock:
    """Converts the workload's wall time into reference units (``ref``).

    On a shared host the same code's speed swings by up to 1.7x within a
    minute; a fixed loop timed next to the work swings with it.  The loop is
    sampled between operations (outside every timed span), and a span of
    wall time is reported in ``ref``: its seconds divided by the median loop
    time of the samples within ``PAD`` seconds of it (at least the nearest
    one on each side).
    """

    PAD = 1.0
    #: Loop runs per sample; the fastest counts (a preempted run is slow).
    RUNS = 3

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self, samples: int = 1) -> None:
        for _ in range(samples):
            best = float("inf")
            for _ in range(self.RUNS):
                start = time.perf_counter()
                reference_loop()
                best = min(best, time.perf_counter() - start)
            self.times.append(time.perf_counter())
            self.seconds.append(best)

    def ref_seconds(self, start: float, end: float) -> float:
        """The loop's median time around the span ``[start, end]``."""
        lo = min(bisect_left(self.times, start - self.PAD), max(bisect_left(self.times, start) - 1, 0))
        hi = max(bisect_right(self.times, end + self.PAD), bisect_right(self.times, end) + 1)
        return median(self.seconds[lo:hi])

    def units(self, start: float, end: float) -> float:
        return (end - start) / self.ref_seconds(start, end)


def warmup_compile() -> None:
    """The set-up's one tiny compile (see :data:`WARMUP`)."""
    from repro import Pipeline, PipelineSettings
    from repro.circuits.benchmarks import make_benchmark

    circuit = make_benchmark(WARMUP["benchmark"], WARMUP["qubits"], seed=WARMUP["seed"])
    Pipeline(PipelineSettings(fusion_success_rate=WARMUP["rate"])).compile(circuit, WARMUP["seed"])


class WarmProbe:
    """The :data:`PROBE` compile, repeated between a workload's operations.

    Sampling between operations spreads the latencies over the whole run
    instead of one short window.  Every repeat must produce the first
    one's counts; a mismatch or an exception fails that repeat.  ``spans``
    holds each repeat's ``(start, end)``; the clock is sampled around each.
    """

    def __init__(self, tally: Tally, clock: HostClock) -> None:
        from repro import Pipeline, PipelineSettings
        from repro.circuits.benchmarks import make_benchmark

        self.tally = tally
        self.clock = clock
        self.circuit = make_benchmark(PROBE["benchmark"], PROBE["qubits"], seed=PROBE["seed"])
        self.pipeline = Pipeline(PipelineSettings(fusion_success_rate=PROBE["rate"]))
        self.spans: list[tuple[float, float]] = []
        self._first: tuple | None = None

    def sample(self, repeats: int) -> None:
        for _ in range(repeats):
            self.clock.sample()
            self.tally.op()
            start = time.perf_counter()
            try:
                result = self.pipeline.compile(self.circuit, PROBE["seed"])
            except Exception as exc:  # an operation boundary: count it, keep going
                self.tally.fail("warm probe compile", exc)
                continue
            self.spans.append((start, time.perf_counter()))
            counts = (result.rsl_count, result.fusion_count, result.logical_layers)
            self._first = self._first or counts
            self.tally.check(counts == self._first, f"warm probe repeat differs: {counts} != {self._first}")
        self.clock.sample()
