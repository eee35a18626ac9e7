"""Lifecycle event stream: a per-event-flush JSONL sink.

Events are the narrative half of telemetry — job started/finished, cache
hit, run started/finished — one flat JSON object per event with an epoch
``ts`` and a ``kind``.  Nothing is kept in memory, so a long-running
process does not grow with its event count.  When a ``path`` is given,
every event is written and flushed immediately, following the
per-record-flush discipline of :mod:`repro.experiments.streams` — the
file is tail-able mid-run and survives a crash with everything emitted so
far; without one, events go nowhere.
"""

from __future__ import annotations

import json
import threading
import time
from typing import IO, Any

#: Bump when the event schema changes; validated by
#: benchmarks/telemetry_schema.py.
EVENTS_SCHEMA_VERSION = 1


class EventLog:
    """Append-only event log: a flush-per-line JSONL sink, or nowhere."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._handle: IO[str] | None = open(path, "w") if path else None
        self._lock = threading.Lock()

    def emit(self, kind: str, _ts: float | None = None, **fields: Any) -> dict[str, Any]:
        """Record one event; ``_ts`` preserves an original timestamp when
        re-emitting an event recorded earlier."""
        event = {"ts": time.time() if _ts is None else _ts, "kind": kind, **fields}
        with self._lock:
            if self._handle is not None:
                self._handle.write(json.dumps(event, sort_keys=True) + "\n")
                self._handle.flush()  # the contract: every event reaches the OS
        return event

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
