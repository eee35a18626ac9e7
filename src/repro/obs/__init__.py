"""Unified telemetry: tracing spans, a metrics registry, and event streams.

One stdlib-only subsystem answers "where did time and memory go?" across
the whole stack — pipeline passes, the artifact cache, and every runner
backend:

* **tracing** (:mod:`repro.obs.trace`) — hierarchical spans with monotonic
  durations and parent links, exported as JSONL;
* **metrics** (:mod:`repro.obs.metrics`) — counters/gauges/histograms
  (cache hits, evictions, BFS wavefront sizes, reorder-buffer depth);
* **events** (:mod:`repro.obs.events`) — a per-event-flush JSONL lifecycle
  stream (job started/finished, cache hit, run started/finished).

Telemetry is strictly **out-of-band**: nothing recorded here may feed a
computation, so golden records are byte-identical with telemetry on or
off (enforced by test).  Collection is scoped to a :func:`session` — with
no session active, every module-level helper short-circuits on one global
``None`` check and the hot paths pay nothing.

Cross-process contract: a subprocess cannot see the parent's session, so
its telemetry rides the same pickle channels its results already use —
compilation spans and cache hit/miss counts attach to
``CompilationResult``/``ExperimentRecord`` and are adopted by the
consuming runner as each record passes through.

Spans are recorded by the pipeline (one ``compile`` root and one
``pass:<name>`` span per stage, on a tracer of each compilation's own)
and by the runners (``run:``); deeper code records counters, histograms
and events, which need no handle threading.

Usage::

    from repro import obs

    with obs.session(events_path="events.jsonl") as tele:
        result = pipeline.compile(circuit)  # pass spans, cache counters
        tele.adopt_compile(result)
        tele.write_trace("trace.jsonl")

    obs.count("cache.hits"); obs.observe("online.bfs_nodes", 128)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.events import EVENTS_SCHEMA_VERSION, EventLog
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import TRACE_SCHEMA_VERSION, Tracer, write_trace_jsonl

__all__ = [
    "EVENTS_SCHEMA_VERSION",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "TRACE_SCHEMA_VERSION",
    "Telemetry",
    "Tracer",
    "active",
    "count",
    "event",
    "gauge",
    "observe",
    "session",
    "tracing",
    "write_trace_jsonl",
]


class Telemetry:
    """One session's collectors: a tracer, a registry, an event log.

    ``spans=False`` makes a counters-only session: no pipeline traces
    under it (:func:`tracing` is False), so the records it adopts carry no
    spans, and runners add no ``run:`` span; its tracer stays empty
    however long it lives (the serve session, which lasts the server's
    lifetime).
    """

    def __init__(self, events_path: str | None = None, spans: bool = True) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventLog(events_path)
        self.spans = spans

    # -- adoption: telemetry that crossed a process boundary ----------------

    def adopt_record(self, record: Any) -> None:
        """Fold one experiment record's out-of-band telemetry in.

        Spans attached to the record are adopted with the job key stamped
        on their roots; cache hit/miss counts from ``record.metrics`` (the
        provenance channel that already survives every runner boundary)
        feed the ``cache.*`` counters, which only ever count those
        per-compilation metrics, so serial and process runs reconcile
        identically.
        """
        spans = getattr(record, "spans", ()) or ()
        if spans:
            self.tracer.adopt(spans, root_attrs={"job": record.job})
        metrics = getattr(record, "metrics", None) or {}
        hits = metrics.get("cache_hits", 0)
        misses = metrics.get("cache_misses", 0)
        if hits:
            self.metrics.inc("cache.hits", hits)
        if misses:
            self.metrics.inc("cache.misses", misses)
        self.events.emit("job_finished", job=record.job, experiment=record.experiment)

    def adopt_compile(self, result: Any, circuit: str | None = None) -> None:
        """Fold one ``Pipeline.compile`` outcome in (the CLI compile path)."""
        attrs = {"circuit": circuit} if circuit else None
        if result.spans:
            self.tracer.adopt(result.spans, root_attrs=attrs)
        for source, counter in (("cache_hits", "cache.hits"),
                                ("cache_misses", "cache.misses")):
            value = result.metrics.get(source, 0)
            if value:
                self.metrics.inc(counter, value)
        self.events.emit("compile_finished", circuit=circuit)

    # -- exports -------------------------------------------------------------

    def write_trace(self, path: str) -> None:
        """Export the session trace: JSONL span lines plus the metrics
        snapshot."""
        write_trace_jsonl(path, self.tracer.spans, metrics=self.metrics.snapshot())

    def close(self) -> None:
        self.events.close()


# ---------------------------------------------------------------------------
# The active session
# ---------------------------------------------------------------------------

_ACTIVE: Telemetry | None = None
_ACTIVE_LOCK = threading.Lock()


def active() -> Telemetry | None:
    """The process's active telemetry session, or None (the common case)."""
    return _ACTIVE


def tracing() -> bool:
    """Whether the active session keeps spans (False without a session)."""
    tele = _ACTIVE
    return tele is not None and tele.spans


@contextmanager
def session(events_path: str | None = None, spans: bool = True) -> Iterator[Telemetry]:
    """Activate a telemetry session for a scope (reentrant: nested sessions
    stack, the inner one collecting until it exits).  ``spans=False``
    collects counters, histograms and events only."""
    global _ACTIVE
    tele = Telemetry(events_path=events_path, spans=spans)
    with _ACTIVE_LOCK:
        previous, _ACTIVE = _ACTIVE, tele
    try:
        yield tele
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous
        tele.close()


# -- module-level recording helpers (no-ops without a session) --------------


def count(name: str, value: float = 1) -> None:
    """Bump counter ``name`` on the active session, if any."""
    tele = _ACTIVE
    if tele is not None:
        tele.metrics.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the active session, if any."""
    tele = _ACTIVE
    if tele is not None:
        tele.metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Observe ``value`` into histogram ``name`` on the active session."""
    tele = _ACTIVE
    if tele is not None:
        tele.metrics.observe(name, value)


def event(kind: str, **fields: Any) -> None:
    """Emit a lifecycle event on the active session, if any."""
    tele = _ACTIVE
    if tele is not None:
        tele.events.emit(kind, **fields)
