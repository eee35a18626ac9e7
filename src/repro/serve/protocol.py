"""The service wire protocol: versioned JSONL frames over a byte stream.

One request is one JSON object on one line; one response is a *stream* of
JSON frames, one per line, terminated by exactly one terminal frame.  The
same frame vocabulary travels over TCP and over a Unix socket — the
transport never changes the bytes, which is what makes the golden
byte-identity contract (records streamed through the server are identical
to a local :meth:`~repro.experiments.api.Experiment.run`) testable at the
protocol layer.

Frame kinds (server -> client):

* ``hello`` — once per connection, immediately after accept: protocol
  version handshake.  A client that sees a different ``v`` must disconnect.
* ``ack`` — once per request: the request's single-flight ``key`` and
  whether this subscriber ``coalesced`` onto an already-running compile.
  Per-connection, *not* part of the shared stream — everything after it is
  byte-identical for every subscriber of the same key.
* ``record`` — one per :class:`~repro.experiments.api.ExperimentRecord`
  (experiment requests), carrying exactly the JSONL-writer payload:
  ``record.canonical()`` plus ``timings`` and ``metrics``.
* ``pass`` — one per pass completion (compile/baseline requests), as the
  pipeline stage finishes.
* ``result`` — the final compile/baseline outcome (compile requests).
* ``summary`` — the terminal success frame: the record count, elapsed
  seconds and the cache counts summed from the response's records (or
  its compilation's metrics).  Shared by every subscriber of the stream.
* ``error`` — the terminal failure frame (also used for per-connection
  protocol errors and request timeouts).
* ``stats`` — the terminal frame of a ``stats`` request: the live server
  introspection payload, the one place the server's own counters
  (requests, errors, cache totals over its lifetime) are served.

Requests name an ``op`` (``experiment``, ``compile``, ``baseline``,
``stats``); :func:`validate_request` normalizes one against the schema —
defaults filled in, types checked, unknown keys rejected; the compile
and experiment fields are :mod:`repro.request`'s, the CLI's too — so the server
executes only fully-specified requests and two textually different
requests for the same work normalize to the same single-flight key.
"""

from __future__ import annotations

import json
from typing import Any

from repro.experiments.api import ExperimentRecord
from repro.request import REQUEST_FIELDS, ProtocolError, normalize

#: Bump on any frame- or request-schema change: a mismatched client must
#: fail the hello handshake, never misparse a stream.  v2: experiment and
#: compile requests grew the ``rewrite`` field (pattern-rewrite pass gate).
#: v3: the ``rewrite`` field left again (the rewrite pass is always in the
#: chain); a request that still carries it is rejected as an unknown field.
#: v4: the ``summary`` frame dropped the store's own totals and its copy of
#: the server's metrics registry, which only the ``stats`` op serves.
PROTOCOL_VERSION = 4

#: Upper bound on one frame line (requests are small; record frames are
#: bounded by record size).  The server passes this as the asyncio stream
#: limit so a garbage client cannot buffer unbounded input.
MAX_FRAME_BYTES = 1 << 20

FRAME_KINDS = (
    "hello",
    "ack",
    "record",
    "pass",
    "result",
    "summary",
    "error",
    "stats",
)

#: Frames that end a request's stream (the client stops reading after one).
TERMINAL_FRAMES = ("summary", "error", "stats")

# ---------------------------------------------------------------------------
# Frame (de)serialization
# ---------------------------------------------------------------------------


def encode_frame(frame: dict[str, Any]) -> bytes:
    """One frame as its canonical wire bytes (sorted keys, one line).

    Sorted keys and tight separators make the encoding a *function* of the
    frame content — the byte-identity tests compare these lines directly.
    """
    return (json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n").encode()


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a frame dict, validating the ``frame`` tag."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"unparsable frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame is not a JSON object: {obj!r}")
    kind = obj.get("frame")
    if kind not in FRAME_KINDS:
        raise ProtocolError(
            f"unknown frame kind {kind!r}; expected one of: {', '.join(FRAME_KINDS)}"
        )
    return obj


# ---------------------------------------------------------------------------
# Frame constructors (the one definition of each frame's shape)
# ---------------------------------------------------------------------------


def hello_frame() -> dict[str, Any]:
    return {"frame": "hello", "v": PROTOCOL_VERSION, "server": "repro-serve"}


def ack_frame(
    request_id: str | None, op: str, key: str, coalesced: bool
) -> dict[str, Any]:
    return {
        "frame": "ack",
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "key": key,
        "coalesced": coalesced,
    }


def record_frame(seq: int, record: ExperimentRecord) -> dict[str, Any]:
    """One record as a frame — :meth:`ExperimentRecord.payload`, exactly
    a ``JsonlStreamWriter`` line, so a streamed file of these reconciles
    with ``--stream --out`` output."""
    return {
        "frame": "record",
        "seq": seq,
        "record": record.payload(),
    }


def pass_frame(name: str, seconds: float) -> dict[str, Any]:
    return {"frame": "pass", "pass": name, "seconds": seconds}


def result_frame(op: str, payload: dict[str, Any]) -> dict[str, Any]:
    return {"frame": "result", "op": op, "result": payload}


def summary_frame(
    op: str,
    *,
    records: int,
    elapsed_s: float,
    cache: dict[str, Any],
) -> dict[str, Any]:
    return {
        "frame": "summary",
        "v": PROTOCOL_VERSION,
        "op": op,
        "records": records,
        "elapsed_s": elapsed_s,
        "cache": cache,
    }


def error_frame(
    message: str, kind: str = "error", details: dict[str, Any] | None = None
) -> dict[str, Any]:
    """A terminal error frame; ``details`` carries structured payloads
    (e.g. a device validator's JSON diagnostics) without changing the
    frame's required shape."""
    frame = {"frame": "error", "v": PROTOCOL_VERSION, "error": message, "kind": kind}
    if details is not None:
        frame["details"] = details
    return frame


def stats_frame(payload: dict[str, Any]) -> dict[str, Any]:
    return {"frame": "stats", "v": PROTOCOL_VERSION, "stats": payload}


def record_from_payload(payload: dict[str, Any]) -> ExperimentRecord:
    """Reconstruct an :class:`ExperimentRecord` from a record frame payload.

    The inverse of :meth:`ExperimentRecord.payload`: a client folds these into
    :meth:`~repro.experiments.api.ExperimentResult.from_stream` and gets a
    result whose canonical JSON is byte-identical to the local run's.
    """
    try:
        return ExperimentRecord(
            experiment=payload["experiment"],
            scale=payload["scale"],
            seed=payload["seed"],
            job=payload["job"],
            fields=dict(payload["fields"]),
            timings=dict(payload.get("timings", {})),
            metrics=dict(payload.get("metrics", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed record payload: {exc}") from None


# ---------------------------------------------------------------------------
# Request validation
# ---------------------------------------------------------------------------

#: op -> (required ``field: types``, optional ``field: (types, default)``):
#: the shared compile/experiment tables (:mod:`repro.request`) plus the
#: service's own ``stats`` op.
_REQUEST_SPEC: dict[str, tuple[dict, dict]] = {**REQUEST_FIELDS, "stats": ({}, {})}

OPS = tuple(_REQUEST_SPEC)

#: Fields every request may carry regardless of op.
_COMMON_OPTIONAL: dict[str, tuple[tuple, Any]] = {
    "id": ((str, type(None)), None),
    "v": ((int,), PROTOCOL_VERSION),
}


def validate_request(obj: Any) -> dict[str, Any]:
    """Normalize one request against the schema; raises :class:`ProtocolError`.

    Returns a *new* dict with every optional field present (defaults filled
    in), which is what makes the single-flight key a pure function of the
    normalized request: two clients omitting vs. spelling out a default
    coalesce onto the same in-flight compile.
    """
    request = normalize(obj, _REQUEST_SPEC, common=_COMMON_OPTIONAL)
    if request["v"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {request['v']} != server's {PROTOCOL_VERSION}"
        )
    return request
