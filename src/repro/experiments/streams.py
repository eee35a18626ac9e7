"""Incremental record writers: flush one record at a time to disk.

The streaming half of the export surface (CLI ``experiment --stream
--out FILE``): where ``ExperimentResult.to_csv``/``to_json_obj`` serialize
a finished run, these writers accept records *as they arrive* from
:meth:`~repro.experiments.api.Experiment.iter_records` and flush after
every one, so a long sweep's output file is tail-able and survives a
mid-run crash with everything completed so far.

Two formats:

* :class:`JsonlStreamWriter` (``.json``/``.jsonl``/anything non-CSV) —
  JSON Lines, one self-contained record object per line (provenance,
  fields, timings, metrics).  Lossless for any job mix; the streaming
  analogue of ``to_json_obj``'s ``records`` array.
* :class:`CsvStreamWriter` (``.csv``) — one flat row per record.  A stream
  cannot wait for the full column union the way ``to_csv`` does, so the
  header is fixed by the first record; later records with *novel* columns
  have those columns dropped (counted in ``dropped_keys``, surfaced by the
  CLI).  Experiments whose jobs share one schema — every record the same
  columns — stream byte-identically to ``to_csv``; for mixed-schema
  experiments (e.g. fig13's compile + fn mix) prefer JSONL.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Any

from repro.experiments.api import ExperimentRecord


class RecordStreamWriter:
    """Base contract: ``write(record)`` flushes; ``close()`` finalizes.

    Usable as a context manager; ``records_written`` counts successful
    writes for progress reporting.
    """

    def __init__(self, handle: IO[str]) -> None:
        self._handle = handle
        self.records_written = 0

    def write(self, record: ExperimentRecord) -> None:
        self._emit(record)
        self._handle.flush()  # the contract: every record reaches the OS
        self.records_written += 1

    def _emit(self, record: ExperimentRecord) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "RecordStreamWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class JsonlStreamWriter(RecordStreamWriter):
    """One JSON object per line: full record fidelity, flushed per record."""

    def _emit(self, record: ExperimentRecord) -> None:
        self._handle.write(json.dumps(record.payload(), sort_keys=True) + "\n")


#: Provenance columns every record's flat row leads with — the header a
#: zero-record CSV stream falls back to, so an empty run still produces a
#: parseable file (matching ``to_csv``, which always emits a header row).
LEAD_FIELDS = ("experiment", "scale", "seed", "job")


class CsvStreamWriter(RecordStreamWriter):
    """One flat CSV row per record; header fixed by the first record.

    Missing columns in later records are blank (``restval``); novel
    columns are dropped and tallied in ``dropped_keys`` so the caller can
    tell the user data went missing (and to use JSONL instead).  A run
    that produces *no* records still gets a header at ``close()`` — the
    ``fieldnames`` hint when the caller knows the schema up front, the
    provenance lead columns otherwise — so downstream CSV tooling never
    chokes on a headerless empty file.
    """

    def __init__(self, handle: IO[str], fieldnames: list[str] | None = None) -> None:
        super().__init__(handle)
        self._writer: csv.DictWriter | None = None
        self._hint = list(fieldnames) if fieldnames else None
        self.fieldnames: list[str] = []
        self.dropped_keys: set[str] = set()

    def _start(self, fieldnames: list[str]) -> None:
        self.fieldnames = fieldnames
        self._writer = csv.DictWriter(
            self._handle, fieldnames=fieldnames, restval=""
        )
        self._writer.writeheader()

    def _emit(self, record: ExperimentRecord) -> None:
        row = record.flat()
        if self._writer is None:
            self._start(self._hint or list(row))
        known = {key: value for key, value in row.items() if key in self.fieldnames}
        self.dropped_keys.update(key for key in row if key not in self.fieldnames)
        self._writer.writerow(known)

    def close(self) -> None:
        if self._writer is None and not self._handle.closed:
            # Zero records arrived: derive the header rather than leave a
            # headerless (empty) CSV behind.
            self._start(self._hint or list(LEAD_FIELDS))
            self._handle.flush()
        super().close()


def make_stream_writer(
    path: str, fieldnames: list[str] | None = None
) -> RecordStreamWriter:
    """The writer for ``path``, by extension (``.csv`` -> CSV, else JSONL).

    ``fieldnames`` is an optional CSV schema hint (ignored for JSONL):
    with it, the header is written from the hint instead of the first
    record.  The opened handle never leaks: if writer construction fails,
    the handle is closed before the error propagates.
    """
    handle = open(path, "w", newline="")
    try:
        if path.lower().endswith(".csv"):
            return CsvStreamWriter(handle, fieldnames=fieldnames)
        return JsonlStreamWriter(handle)
    except BaseException:
        handle.close()
        raise
