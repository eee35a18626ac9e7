"""Process-local metrics registry: counters, gauges, histograms.

The numeric half of the telemetry layer (:mod:`repro.obs`): named
**counters** (cache hits, evictions, jobs finished), **gauges** (jobs in
flight), and **histograms** (frontier-BFS wavefront sizes, reorder-buffer
depth) with stdlib-only summary statistics — count/sum/min/max, enough for
hit-rate and latency tables without reservoir sampling.

A registry serializes to a plain dict (:meth:`MetricsRegistry.snapshot`)
for trace files and the serve ``stats`` frame.  Telemetry from a process
pool's workers does not merge registries: it rides each record's
``metrics`` and is folded in at adoption (see :mod:`repro.obs`).

When no telemetry session is active the module-level helpers in
:mod:`repro.obs` short-circuit before ever touching a registry, so the
disabled path costs one global load and a ``None`` check.
"""

from __future__ import annotations

import threading
from typing import Any


class Histogram:
    """Streaming summary of an observed value: count, sum, min, max."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms behind one lock.

    Lazily creating on first touch keeps call sites declaration-free:
    ``registry.inc("cache.hits")`` is the whole API.  The lock makes
    concurrent bumps from the serve layer's worker threads safe; per-operation cost is one
    uncontended lock acquire — nothing on the disabled path, which never
    reaches a registry at all.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- write paths ---------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # -- read paths ----------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> dict[str, Any] | None:
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.snapshot() if histogram is not None else None

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict, JSON/pickle-ready copy of everything recorded."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in self._histograms.items()
                },
            }
