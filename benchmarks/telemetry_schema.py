"""Line-by-line schema validation for telemetry JSONL files.

The telemetry layer (``repro.obs``) writes two JSONL artifacts: a *trace*
file (a ``meta`` header, one ``span`` line per span, an optional trailing
``metrics`` snapshot) and an *events* file (one flat lifecycle event per
line).  Both formats are versioned (``TRACE_SCHEMA_VERSION`` /
``EVENTS_SCHEMA_VERSION``); this checker pins the line shapes so a schema
drift breaks CI's telemetry smoke step instead of silently producing
artifacts downstream tooling can't parse.

Validation is structural, not semantic: every line must be a JSON object
with the right tag, required keys, and field types.  Cross-line checks are
limited to the cheap invariants (exactly one meta header, it comes first,
at most one metrics trailer, span parent links resolve within the file).

Usage (exit 0 when everything validates, 1 otherwise)::

    python benchmarks/telemetry_schema.py --trace trace.jsonl [--events events.jsonl]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Keep the repo importable when invoked as a script from anywhere: the
# checker validates against the library's declared schema versions, never
# a copy that could drift.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.events import EVENTS_SCHEMA_VERSION  # noqa: E402
from repro.obs.trace import TRACE_SCHEMA_VERSION  # noqa: E402

#: ``field -> allowed types`` for one span line.  ``cpu`` and ``parent``
#: admit None: orchestration-side spans (``add_span``) have no thread CPU
#: reading, and root spans have no parent.
_SPAN_FIELDS = {
    "name": (str,),
    "ts": (int, float),
    "dur": (int, float),
    "cpu": (int, float, type(None)),
    "id": (str,),
    "parent": (str, type(None)),
    "pid": (int,),
    "attrs": (dict,),
}

_HISTOGRAM_FIELDS = {
    "count": (int,),
    "sum": (int, float),
    "min": (int, float, type(None)),
    "max": (int, float, type(None)),
}


def _type_errors(obj: dict, fields: dict, where: str) -> list[str]:
    errors = []
    for key, types in fields.items():
        if key not in obj:
            errors.append(f"{where}: missing key {key!r}")
        elif not isinstance(obj[key], types) or isinstance(obj[key], bool):
            errors.append(
                f"{where}: {key!r} is {type(obj[key]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    return errors


def _parse_lines(path: str | Path) -> tuple[list[dict], list[str]]:
    """Every line as a parsed object; non-object or unparsable lines as
    errors (subsequent checks skip them rather than crash)."""
    objects, errors = [], []
    text = Path(path).read_text()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            errors.append(f"line {number}: blank line")
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: unparsable JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            errors.append(f"line {number}: not a JSON object")
            continue
        objects.append(obj | {"_line": number})
    return objects, errors


def validate_trace(path: str | Path) -> list[str]:
    """All schema violations in a trace JSONL file (empty list == valid)."""
    objects, errors = _parse_lines(path)
    if not objects and not errors:
        return ["trace file is empty"]
    metas, span_ids, parents = 0, set(), []
    for obj in objects:
        where = f"line {obj['_line']}"
        kind = obj.get("type")
        if kind == "meta":
            metas += 1
            if obj["_line"] != 1:
                errors.append(f"{where}: meta header must be the first line")
            if obj.get("schema") != TRACE_SCHEMA_VERSION:
                errors.append(
                    f"{where}: schema {obj.get('schema')!r} != {TRACE_SCHEMA_VERSION}"
                )
        elif kind == "span":
            errors.extend(_type_errors(obj, _SPAN_FIELDS, where))
            if isinstance(obj.get("id"), str):
                if obj["id"] in span_ids:
                    errors.append(f"{where}: duplicate span id {obj['id']!r}")
                span_ids.add(obj["id"])
            if isinstance(obj.get("parent"), str):
                parents.append((where, obj["parent"]))
            if isinstance(obj.get("dur"), (int, float)) and obj["dur"] < 0:
                errors.append(f"{where}: negative dur {obj['dur']}")
        elif kind == "metrics":
            errors.extend(
                _type_errors(
                    obj,
                    {"counters": (dict,), "gauges": (dict,), "histograms": (dict,)},
                    where,
                )
            )
            for name, data in obj.get("histograms", {}).items():
                if isinstance(data, dict):
                    errors.extend(
                        _type_errors(data, _HISTOGRAM_FIELDS, f"{where}: {name}")
                    )
                else:
                    errors.append(f"{where}: histogram {name!r} is not an object")
            if obj is not objects[-1]:
                errors.append(f"{where}: metrics snapshot must be the last line")
        else:
            errors.append(f"{where}: unknown line type {kind!r}")
    if metas != 1:
        errors.append(f"expected exactly one meta header, found {metas}")
    for where, parent in parents:
        if parent not in span_ids:
            errors.append(f"{where}: parent {parent!r} not in this trace")
    return errors


def validate_events(path: str | Path) -> list[str]:
    """All schema violations in an events JSONL file (empty list == valid).

    Every line is one flat event: a ``kind`` string, an epoch ``ts``, and
    JSON-scalar payload fields.  (Version: EVENTS_SCHEMA_VERSION, implicit
    — the event shape itself carries no version tag, so the constant pins
    this validator to the writer.)
    """
    assert EVENTS_SCHEMA_VERSION == 1
    objects, errors = _parse_lines(path)
    previous_ts = None
    for obj in objects:
        where = f"line {obj['_line']}"
        errors.extend(
            _type_errors(obj, {"kind": (str,), "ts": (int, float)}, where)
        )
        for key, value in obj.items():
            if key == "_line":
                continue
            if not isinstance(value, (str, int, float, bool, type(None))):
                errors.append(f"{where}: field {key!r} is not a JSON scalar")
        ts = obj.get("ts")
        if isinstance(ts, (int, float)):
            # Re-emitted events keep original timestamps, so the file is
            # only *approximately* ordered; a wildly regressing clock
            # still indicates corruption.
            if previous_ts is not None and ts < previous_ts - 3600:
                errors.append(f"{where}: ts regresses by more than an hour")
            previous_ts = max(previous_ts or ts, ts)
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", help="trace JSONL file to validate")
    parser.add_argument("--events", help="events JSONL file to validate")
    args = parser.parse_args(argv)
    if not args.trace and not args.events:
        parser.error("nothing to validate: pass --trace and/or --events")

    failures = 0
    for label, path, validate in (
        ("trace", args.trace, validate_trace),
        ("events", args.events, validate_events),
    ):
        if not path:
            continue
        try:
            errors = validate(path)
        except OSError as exc:
            errors = [f"unreadable: {exc}"]
        if errors:
            failures += 1
            print(f"{label} {path}: INVALID", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
        else:
            with open(path) as handle:
                lines = sum(1 for _ in handle)
            print(f"{label} {path}: ok ({lines} lines)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
