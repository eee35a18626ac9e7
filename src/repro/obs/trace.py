"""Hierarchical tracing spans: monotonic clocks, ids, parent links, JSONL export.

A :class:`Tracer` records **spans** — named intervals with a wall-clock
start (``ts``, epoch seconds, comparable across processes on one host), a
duration (``dur``, measured with ``time.perf_counter`` so it never goes
backwards), a per-thread CPU time (``cpu``, from ``time.thread_time``), a
process-unique ``id``, and a ``parent`` link.  Spans are stored as plain
JSON-ready dicts, which is what lets them ride the same pickle channels
compilation results and experiment records already travel (a subprocess's
spans come back attached to its outcomes, not through shared state).

Export: :func:`write_trace_jsonl` (one JSON object per line — a ``meta``
header, one ``span`` line each, an optional trailing ``metrics`` snapshot).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Iterable

#: Bump when the span line schema changes; the schema checker in
#: benchmarks/telemetry_schema.py validates against this.
TRACE_SCHEMA_VERSION = 1

#: Process-wide tracer sequence: tracers adopted into one trace (one per
#: compilation) must not collide on span ids.
_TRACER_SEQ = itertools.count(1)

class _SpanContext:
    """One open span; closing it stamps ``dur``/``cpu`` into the record."""

    __slots__ = ("tracer", "record", "_wall0", "_cpu0")

    def __init__(self, tracer: "Tracer", record: dict[str, Any]) -> None:
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> "_SpanContext":
        self.record["ts"] = time.time()
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.record["dur"] = time.perf_counter() - self._wall0
        self.record["cpu"] = time.thread_time() - self._cpu0
        self.tracer._close(self.record)

    # Convenience accessors for callers that reuse the span's clocks
    # (the pipeline feeds PassTiming from these instead of re-reading).

    @property
    def wall(self) -> float:
        return self.record["dur"]

    @property
    def cpu(self) -> float:
        return self.record["cpu"]


class Tracer:
    """An append-only span collection with an open-span stack.

    One tracer serves one logical unit (a compilation, a CLI session); the
    stack is therefore single-threaded by construction — concurrent
    compilations each get their own tracer and the spans merge later via
    :meth:`adopt`.  ``spans`` holds plain dicts in *completion* order.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._prefix = f"{os.getpid():x}.{next(_TRACER_SEQ):x}"
        self._seq = itertools.count(1)
        self._stack: list[str] = []
        self._lock = threading.Lock()

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a child span of the innermost open span (context manager)."""
        record: dict[str, Any] = {
            "name": name,
            "ts": 0.0,
            "dur": 0.0,
            "cpu": 0.0,
            "id": f"{self._prefix}.{next(self._seq)}",
            "parent": self._stack[-1] if self._stack else None,
            "pid": os.getpid(),
            "attrs": attrs,
        }
        self._stack.append(record["id"])
        return _SpanContext(self, record)

    def _close(self, record: dict[str, Any]) -> None:
        # Spans close LIFO in correct code, but an exception unwinding
        # several at once must not corrupt the stack: pop to the record.
        while self._stack and self._stack[-1] != record["id"]:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        with self._lock:
            self.spans.append(record)

    def add_span(
        self,
        name: str,
        *,
        ts: float,
        dur: float,
        cpu: float | None = None,
        parent: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Record an already-measured interval (orchestration-side spans
        whose start and end were observed at different call sites)."""
        record = {
            "name": name,
            "ts": ts,
            "dur": dur,
            "cpu": cpu,
            "id": f"{self._prefix}.{next(self._seq)}",
            "parent": parent,
            "pid": os.getpid(),
            "attrs": dict(attrs or {}),
        }
        with self._lock:
            self.spans.append(record)
        return record

    def adopt(
        self,
        spans: Iterable[dict[str, Any]],
        root_attrs: dict[str, Any] | None = None,
    ) -> int:
        """Fold spans recorded elsewhere (another tracer, another process).

        ``root_attrs`` is merged into the attrs of adopted *root* spans
        (``parent is None``) — the adoption point knows provenance (which
        job, which circuit) the recording point did not.  Returns the number
        of spans adopted.
        """
        adopted = []
        for record in spans:
            if root_attrs and record.get("parent") is None:
                record = {**record, "attrs": {**record.get("attrs", {}), **root_attrs}}
            adopted.append(record)
        with self._lock:
            self.spans.extend(adopted)
        return len(adopted)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def write_trace_jsonl(
    path: str | os.PathLike,
    spans: Iterable[dict[str, Any]],
    metrics: dict[str, Any] | None = None,
    meta: dict[str, Any] | None = None,
) -> int:
    """Write a trace file: meta line, span lines, optional metrics line.

    Every line is a self-contained JSON object tagged with ``"type"``
    (``meta`` / ``span`` / ``metrics``), so the file is streamable,
    greppable, and validated line-by-line by the schema checker.  Returns
    the number of span lines written.
    """
    count = 0
    with open(path, "w") as handle:
        header = {
            "type": "meta",
            "schema": TRACE_SCHEMA_VERSION,
            "created": time.time(),
            "pid": os.getpid(),
            **(meta or {}),
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in spans:
            handle.write(json.dumps({"type": "span", **record}, sort_keys=True) + "\n")
            count += 1
        if metrics is not None:
            handle.write(
                json.dumps({"type": "metrics", **metrics}, sort_keys=True) + "\n"
            )
    return count

