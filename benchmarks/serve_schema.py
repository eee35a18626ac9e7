"""Line-by-line validation of a captured serve frame stream.

``repro submit --frames-out FILE`` dumps one request's response verbatim:
the ``ack`` frame, then the shared single-flight stream's exact wire
lines.  This checker pins that capture against the protocol contract
(:mod:`repro.serve.protocol`), so a frame-schema drift breaks CI's serve
smoke step instead of silently producing streams downstream clients
can't parse.

Structural checks per frame kind, plus the cross-line invariants that a
stream guarantees: at most one ``ack`` and it comes first, ``record``
sequence numbers are dense from zero, exactly one terminal frame and it
is last, and the ``summary``'s ``records`` count matches the record
frames actually streamed.  The ``summary`` frame and the ``stats``
payload are pinned to their exact key sets: the server's own counters
travel only in ``stats``, never in a response.  ``--min-hit-rate``
additionally asserts the summary's record-derived cache hit rate — CI's
warm-run check.

Usage (exit 0 when everything validates, 1 otherwise)::

    python benchmarks/serve_schema.py --frames frames.jsonl [--min-hit-rate 0.9]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Keep the repo importable when invoked as a script from anywhere: the
# checker validates against the library's declared protocol constants,
# never a copy that could drift.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.protocol import (  # noqa: E402
    FRAME_KINDS,
    OPS,
    PROTOCOL_VERSION,
    TERMINAL_FRAMES,
)

_NoneType = type(None)

#: ``field -> allowed types`` per frame kind (checked on top of the common
#: ``frame`` tag).  Payload sub-shapes are checked separately below.
_FRAME_FIELDS: dict[str, dict[str, tuple]] = {
    "hello": {"v": (int,), "server": (str,)},
    "ack": {"v": (int,), "id": (str, _NoneType), "op": (str,), "key": (str,),
            "coalesced": (bool,)},
    "record": {"seq": (int,), "record": (dict,)},
    "pass": {"pass": (str,), "seconds": (int, float)},
    "result": {"op": (str,), "result": (dict,)},
    "summary": {"v": (int,), "op": (str,), "records": (int,),
                "elapsed_s": (int, float), "cache": (dict,)},
    "error": {"v": (int,), "error": (str,), "kind": (str,)},
    "stats": {"v": (int,), "stats": (dict,)},
}

_RECORD_PAYLOAD_FIELDS = {
    "experiment": (str,),
    "scale": (str,),
    "seed": (int,),
    "job": (str,),
    "fields": (dict,),
    "timings": (dict,),
    "metrics": (dict,),
}

_CACHE_FIELDS = {
    "hits": (int,),
    "misses": (int,),
    "hit_rate": (int, float),
}

_STATS_FIELDS = {
    "uptime_s": (int, float),
    "draining": (bool,),
    "max_inflight": (int,),
    "active": (int,),
    "singleflight": (dict,),
    "metrics": (dict,),
}


def _type_errors(
    obj: dict, fields: dict, where: str, exact: bool = False
) -> list[str]:
    """Missing or mistyped keys; with ``exact``, also keys not in ``fields``."""
    errors = []
    if exact:
        extra = sorted(set(obj) - set(fields))
        if extra:
            errors.append(f"{where}: unexpected keys {extra}")
    for key, types in fields.items():
        if key not in obj:
            errors.append(f"{where}: missing key {key!r}")
        elif isinstance(obj[key], bool) and bool not in types:
            errors.append(f"{where}: {key!r} is bool, expected number")
        elif not isinstance(obj[key], types):
            errors.append(
                f"{where}: {key!r} is {type(obj[key]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    return errors


def validate_frames(
    path: str | Path, min_hit_rate: float | None = None
) -> list[str]:
    """All contract violations in a frame capture (empty list == valid)."""
    errors: list[str] = []
    frames: list[tuple[str, dict]] = []
    text = Path(path).read_text()
    for number, line in enumerate(text.splitlines(), start=1):
        where = f"line {number}"
        if not line.strip():
            errors.append(f"{where}: blank line")
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: unparsable JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        frames.append((where, obj))
    if not frames and not errors:
        return ["frame capture is empty"]

    next_seq = 0
    record_count = 0
    terminals = 0
    summary: dict | None = None
    for index, (where, frame) in enumerate(frames):
        kind = frame.get("frame")
        if kind not in FRAME_KINDS:
            errors.append(f"{where}: unknown frame kind {kind!r}")
            continue
        errors.extend(_type_errors(
            frame, {"frame": (str,), **_FRAME_FIELDS[kind]}, where,
            exact=kind == "summary",
        ))
        if frame.get("v") not in (None, PROTOCOL_VERSION):
            errors.append(
                f"{where}: protocol v{frame['v']} != {PROTOCOL_VERSION}"
            )
        if kind == "ack" and index != 0:
            errors.append(f"{where}: ack must be the first frame of a capture")
        if kind == "hello" and index != 0:
            errors.append(f"{where}: hello after the start of a stream")
        if kind == "record":
            record_count += 1
            if frame.get("seq") != next_seq:
                errors.append(
                    f"{where}: seq {frame.get('seq')} (expected {next_seq})"
                )
            next_seq += 1
            payload = frame.get("record")
            if isinstance(payload, dict):
                errors.extend(
                    _type_errors(payload, _RECORD_PAYLOAD_FIELDS, where)
                )
        if kind in ("result", "summary") and frame.get("op") not in OPS:
            errors.append(f"{where}: unknown op {frame.get('op')!r}")
        if kind == "summary":
            summary = frame
            if isinstance(frame.get("cache"), dict):
                errors.extend(
                    _type_errors(frame["cache"], _CACHE_FIELDS, where)
                )
            if frame.get("records") != record_count:
                errors.append(
                    f"{where}: summary claims {frame.get('records')} records, "
                    f"stream carried {record_count}"
                )
        if kind == "stats" and isinstance(frame.get("stats"), dict):
            errors.extend(
                _type_errors(frame["stats"], _STATS_FIELDS, where, exact=True)
            )
        if kind in TERMINAL_FRAMES:
            terminals += 1
            if index != len(frames) - 1:
                errors.append(f"{where}: terminal frame is not last")
    if terminals != 1:
        errors.append(f"expected exactly one terminal frame, found {terminals}")
    if min_hit_rate is not None:
        if summary is None:
            errors.append("no summary frame to check --min-hit-rate against")
        else:
            rate = summary.get("cache", {}).get("hit_rate", 0.0)
            if not isinstance(rate, (int, float)) or rate < min_hit_rate:
                errors.append(
                    f"summary cache hit rate {rate!r} < floor {min_hit_rate}"
                )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--frames", required=True,
        help="frame capture to validate (repro submit --frames-out)",
    )
    parser.add_argument(
        "--min-hit-rate", type=float, default=None, metavar="RATE",
        help="also require the summary's cache hit rate >= RATE",
    )
    args = parser.parse_args(argv)
    try:
        errors = validate_frames(args.frames, min_hit_rate=args.min_hit_rate)
    except OSError as exc:
        errors = [f"unreadable: {exc}"]
    if errors:
        print(f"frames {args.frames}: INVALID", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    with open(args.frames) as handle:
        lines = sum(1 for _ in handle)
    print(f"frames {args.frames}: ok ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
