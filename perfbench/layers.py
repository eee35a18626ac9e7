"""Per-layer call timers, installed around the program's public functions.

A traced run (``--trace 1``) replaces each wrapped binding — a module-level
name or a class attribute — with a closure that counts the call and adds
its inclusive wall time.  Nothing under ``src/`` changes: the wrappers live
here and are installed into whichever process does the work (the benchmark
process, or the ``repro serve`` subprocess via ``serve_shim.py``).

Functions imported by name are bound once per importing module, so every
module that binds a wrapped name is patched.  A target that a later
refactor removed is listed in :attr:`Layers.absent`; its metrics are left
out of the report and the run carries on.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

#: (metric, module, attribute): module-level bindings to time.
FUNCTION_TARGETS = (
    ("online.form_layer", "repro.online.timelike", "form_layer"),
    ("online.renormalize", "repro.online.timelike", "renormalize"),
    ("online.renormalize", "repro.online.modular", "renormalize"),
    ("online.renormalize", "repro.experiments.fig13", "renormalize"),
    ("online.renormalize", "repro.experiments.fig14", "renormalize"),
    ("online.renormalize", "repro.experiments.fig16", "renormalize"),
    ("online.modular_renormalize", "repro.experiments.fig13", "modular_renormalize"),
    ("online.modular_renormalize", "repro.experiments.fig14", "modular_renormalize"),
    ("percolation.sample_lattice", "repro.experiments.fig13", "sample_lattice"),
    ("percolation.sample_lattice", "repro.experiments.fig14", "sample_lattice"),
    ("percolation.sample_lattice", "repro.experiments.fig16", "sample_lattice"),
    ("percolation.frontier_bfs", "repro.online.renormalize", "frontier_bfs"),
    ("percolation.frontier_bfs", "repro.online.percolation", "frontier_bfs"),
    ("percolation.frontier_adjacency", "repro.online.renormalize", "frontier_adjacency"),
    ("percolation.frontier_adjacency", "repro.online.percolation", "frontier_adjacency"),
    (
        "percolation.grid_spans_from_usable",
        "repro.online.renormalize",
        "grid_spans_from_usable",
    ),
    (
        "percolation.grid_spans_from_usable",
        "repro.online.percolation",
        "grid_spans_from_usable",
    ),
)

#: (metric, module, class, method): methods to time.
METHOD_TARGETS = (
    ("hardware.merge_layers", "repro.hardware.rsg", "RSGArray", "merge_layers"),
    ("percolation.components", "repro.online.percolation", "PercolatedLattice", "components"),
)

#: The renormalize binding on the compile path; ``online.other.s`` is the
#: ``online-reshape`` pass time this binding and ``form_layer`` leave over.
COMPILE_PATH_RENORMALIZE = "repro.online.timelike"

#: Bindings the accounting wrappers need; named in ``absent`` if gone.
PIPELINE_RUN = "repro.pipeline.pipeline.Pipeline.run"
RESHAPER_RUN = "repro.online.timelike.OnlineReshaper.run"
CACHE_FETCH = "repro.pipeline.cache.ArtifactCache.fetch"

PASS_NAMES = ("translate", "rewrite", "offline-map", "lower-ir", "online-reshape", "baseline")
TIMED = (
    "online.form_layer",
    "hardware.merge_layers",
    "online.renormalize",
    "percolation.frontier_bfs",
    "percolation.frontier_adjacency",
    "percolation.grid_spans_from_usable",
    "online.modular_renormalize",
    "percolation.sample_lattice",
    "percolation.components",
)
RESHAPE_COUNTS = (
    "online.rsl_consumed",
    "online.renorm_attempts",
    "online.renorm_successes",
    "online.routing_layers",
    "online.connection_failures",
    "online.visited_sites",
    "online.max_storage_cycles",
)


class Layers:
    """Call counts and inclusive seconds per layer, safe across threads."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._lock = threading.Lock()

    def _add(self, metric: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.seconds[metric] += seconds
            self.calls[metric] += calls

    def _timed(self, metrics: tuple[str, ...], fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                for metric in metrics:
                    self._add(metric, elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; record the ones that no longer exist."""
        for metric, module, attr in FUNCTION_TARGETS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
                continue
            owner, fn = found
            metrics = (metric,)
            if metric == "online.renormalize" and module == COMPILE_PATH_RENORMALIZE:
                metrics += ("online.renormalize@compile",)
            setattr(owner, attr, self._timed(metrics, fn))
        for metric, module, cls, attr in METHOD_TARGETS:
            found = _resolve(module, cls, attr)
            if found is None:
                self.absent.append(f"{module}.{cls}.{attr}")
                continue
            owner, fn = found
            setattr(owner, attr, self._timed((metric,), fn))
        self._wrap_pipeline_run()
        self._wrap_reshaper_run()
        self._wrap_cache()

    def _wrap_pipeline_run(self) -> None:
        """Per-pass seconds and calls, read from the context's pass timings."""
        found = _resolve("repro.pipeline.pipeline", "Pipeline", "run")
        if found is None:
            self.absent.append(PIPELINE_RUN)
            return
        owner, run = found

        def wrapper(pipeline, ctx):
            before = len(ctx.timings)
            try:
                return run(pipeline, ctx)
            finally:
                for timing in ctx.timings[before:]:
                    self._add(f"pass.{timing.name}", timing.seconds)

        owner.run = wrapper

    def _wrap_reshaper_run(self) -> None:
        """Sum the :class:`ReshapeMetrics` of every online execution."""
        found = _resolve("repro.online.timelike", "OnlineReshaper", "run")
        if found is None:
            self.absent.append(RESHAPER_RUN)
            return
        owner, run = found

        def wrapper(reshaper, demands):
            metrics = run(reshaper, demands)
            with self._lock:
                counts = self.counts
                counts["online.rsl_consumed"] += metrics.rsl_consumed
                counts["online.renorm_attempts"] += metrics.renormalization_attempts
                counts["online.renorm_successes"] += metrics.renormalization_successes
                counts["online.routing_layers"] += metrics.routing_layers
                counts["online.connection_failures"] += metrics.connection_failures
                counts["online.visited_sites"] += sum(metrics.visited_sites_per_attempt)
                counts["online.max_storage_cycles"] = max(
                    counts["online.max_storage_cycles"], metrics.max_storage_cycles
                )
            return metrics

        owner.run = wrapper

    def _wrap_cache(self) -> None:
        """Time artifact-cache reads and writes; a ``None`` fetch is a miss."""
        found = _resolve("repro.pipeline.cache", "ArtifactCache", "fetch")
        if found is None:
            self.absent.append(CACHE_FETCH)
            return
        owner, fetch = found
        store = owner.store

        def fetch_wrapper(cache, key):
            start = time.perf_counter()
            payload = fetch(cache, key)
            self._add("cache.fetch", time.perf_counter() - start)
            with self._lock:
                self.counts["cache.hits" if payload is not None else "cache.misses"] += 1
            return payload

        def store_wrapper(cache, key, payload):
            start = time.perf_counter()
            try:
                return store(cache, key, payload)
            finally:
                self._add("cache.store", time.perf_counter() - start)

        owner.fetch = fetch_wrapper
        owner.store = store_wrapper

    def snapshot(self) -> dict:
        """A JSON-ready copy (crosses the serve subprocess boundary)."""
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "absent": list(self.absent),
            }


def _resolve(module: str, *path: str):
    """The owner object and attribute value, or ``None`` if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for name in path[:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, path[-1], None)
    return None if value is None else (owner, value)


def report(snap: dict) -> dict[str, float]:
    """The per-layer metrics of one traced iteration, by name."""
    seconds, calls, counts = snap["seconds"], snap["calls"], snap["counts"]
    absent = set(snap["absent"])
    out: dict[str, float] = {}
    for name in PASS_NAMES:
        out[f"pass.{name}.s"] = seconds.get(f"pass.{name}", 0.0)
        out[f"pass.{name}.calls"] = calls.get(f"pass.{name}", 0)
    for metric in TIMED:
        if _target_absent(metric, absent):
            continue
        out[f"{metric}.s"] = seconds.get(metric, 0.0)
        out[f"{metric}.calls"] = calls.get(metric, 0)
    if not {f"{COMPILE_PATH_RENORMALIZE}.form_layer", f"{COMPILE_PATH_RENORMALIZE}.renormalize"} & absent:
        out["online.other.s"] = (
            out["pass.online-reshape.s"]
            - out["online.form_layer.s"]
            - seconds.get("online.renormalize@compile", 0.0)
        )
    if RESHAPER_RUN not in absent:
        for name in RESHAPE_COUNTS:
            if name != "online.renorm_successes":
                out[name] = counts.get(name, 0)
        attempts = counts.get("online.renorm_attempts", 0)
        out["online.renorm_success_ratio"] = (
            counts.get("online.renorm_successes", 0) / attempts if attempts else 0.0
        )
    if CACHE_FETCH not in absent:
        hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
        out["cache.hits"] = hits
        out["cache.misses"] = misses
        out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for op in ("fetch", "store"):
            out[f"cache.{op}.s"] = seconds.get(f"cache.{op}", 0.0)
            out[f"cache.{op}.calls"] = calls.get(f"cache.{op}", 0)
    return out


def _target_absent(metric: str, absent: set[str]) -> bool:
    """Whether every binding behind ``metric`` is gone."""
    targets = [
        f"{module}.{attr}" for m, module, attr in FUNCTION_TARGETS if m == metric
    ] + [
        f"{module}.{cls}.{attr}" for m, module, cls, attr in METHOD_TARGETS if m == metric
    ]
    return all(target in absent for target in targets)
