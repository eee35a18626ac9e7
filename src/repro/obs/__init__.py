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

Cross-process contract: a subprocess cannot see the parent's session, and
it never needs to.  Every compilation records its pass timings
(``PassContext.timings``: start, wall and CPU seconds per pass) whether
or not anyone traces, and the timings and cache hit/miss counts ride the
pickle channels results already use (``CompilationResult``/
``BaselineResult``, then ``ExperimentRecord``).  The consuming session
adopts each outcome as it passes through: a session that keeps spans
builds one ``compile`` root and one ``pass:<name>`` child per timing from
them (:meth:`Tracer.add_compile`); every session counts the cache hits
and misses.

Spans therefore come from adoption and from the runners (``run:``);
deeper code records counters, histograms and events, which need no
handle threading.

Usage::

    from repro import obs

    with obs.session(events_path="events.jsonl") as tele:
        result = pipeline.compile(circuit)  # timings, cache metrics
        tele.adopt_compile(result, circuit)  # compile/pass: spans, counters
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
    "write_trace_jsonl",
]


class Telemetry:
    """One session's collectors: a tracer, a registry, an event log.

    ``spans=False`` makes a counters-only session: the outcomes it adopts
    add no ``compile``/``pass:`` spans, and runners add no ``run:`` span;
    its tracer stays empty however long it lives (the serve session,
    which lasts the server's lifetime).
    """

    def __init__(self, events_path: str | None = None, spans: bool = True) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventLog(events_path)
        self.spans = spans

    # -- adoption: telemetry that crossed a process boundary ----------------

    def adopt_record(self, record: Any) -> None:
        """Fold one experiment record's out-of-band telemetry in.

        A compile record's pass timings become its ``compile``/``pass:``
        spans, with the job key on the root; cache hit/miss counts from
        ``record.metrics`` (the provenance channel that already survives
        every runner boundary) feed the ``cache.*`` counters, which only
        ever count those per-compilation metrics, so serial and process
        runs reconcile identically.
        """
        attrs = {"circuit": record.circuit, "qubits": record.qubits, "job": record.job}
        self._adopt(record.pass_timings, record.metrics, attrs)
        self.events.emit("job_finished", job=record.job, experiment=record.experiment)

    def adopt_compile(self, result: Any, circuit: Any) -> None:
        """Fold one ``Pipeline.compile`` outcome for ``circuit`` in (the
        CLI compile path)."""
        attrs = {"circuit": circuit.name, "qubits": circuit.num_qubits}
        self._adopt(result.pass_timings, result.metrics, attrs)
        self.events.emit("compile_finished", circuit=circuit.name)

    def _adopt(self, timings: Any, metrics: dict, attrs: dict[str, Any]) -> None:
        if self.spans:
            self.tracer.add_compile(timings, attrs)
        for source, counter in (("cache_hits", "cache.hits"),
                                ("cache_misses", "cache.misses")):
            value = metrics.get(source, 0)
            if value:
                self.metrics.inc(counter, value)

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
