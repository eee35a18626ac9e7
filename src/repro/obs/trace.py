"""Hierarchical tracing spans: ids, parent links, JSONL export.

A :class:`Tracer` records **spans** — named intervals with a wall-clock
start (``ts``, epoch seconds, comparable across processes on one host), a
duration (``dur``, measured with ``time.perf_counter`` so it never goes
backwards), a per-thread CPU time (``cpu``, from ``time.thread_time``), an
``id`` unique to the recording process and tracer, and a ``parent`` link.
Spans are stored as plain JSON-ready dicts.  Nothing opens a span around
live work: a compilation's spans are built from the pass timings its
outcome already carries, in whichever process adopts that outcome
(:meth:`Tracer.add_compile`), so a subprocess sends timings home, never
spans.

Export: :func:`write_trace_jsonl` (one JSON object per line — a ``meta``
header, one ``span`` line each, an optional trailing ``metrics`` snapshot).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Iterable, Sequence

#: Bump when the span line schema changes; the schema checker in
#: benchmarks/telemetry_schema.py validates against this.
TRACE_SCHEMA_VERSION = 1

#: Process-wide tracer sequence: span ids stay unique across tracers.
_TRACER_SEQ = itertools.count(1)


class Tracer:
    """An append-only span collection.

    Every span is recorded already measured: :meth:`add_span` takes an
    interval observed elsewhere (a runner's ``run:`` span), and
    :meth:`add_compile` builds one compilation's spans from its pass
    timings.  ``spans`` holds plain dicts in recording order.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._prefix = f"{os.getpid():x}.{next(_TRACER_SEQ):x}"
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

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

    def add_compile(self, timings: Sequence[Any], attrs: dict[str, Any]) -> None:
        """Record one compilation from its pass timings.

        ``timings`` are the compilation's
        :class:`~repro.pipeline.context.PassTiming` list; each becomes a
        ``pass:<name>`` span with the timing's own clock reads, so a trace
        reconciles with pass timings exactly.  Their parent is one
        ``compile`` root carrying ``attrs`` (circuit, qubits, job), which
        runs from the first pass's start to the last pass's end.
        """
        if not timings:
            return
        first, last = timings[0], timings[-1]
        root = self.add_span(
            "compile",
            ts=first.start,
            dur=max(last.start + last.seconds - first.start, 0.0),
            cpu=sum(timing.cpu_seconds for timing in timings),
            attrs=attrs,
        )
        for timing in timings:
            self.add_span(
                f"pass:{timing.name}",
                ts=timing.start,
                dur=timing.seconds,
                cpu=timing.cpu_seconds,
                parent=root["id"],
            )


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

