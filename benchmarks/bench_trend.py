"""Print a perf-trend diff: fresh ``benchmarks/out/BENCH_*.json`` vs the
committed baselines.

The bench suite writes its snapshots to the gitignored ``benchmarks/out/``;
the committed ``benchmarks/BENCH_*.json`` files are the baseline and are
never rewritten by a test run (refreshing one is a manual copy from
``out/``).  This script walks every numeric leaf of each snapshot pair and
prints old -> new with a percentage delta, so a PR's perf trajectory is
visible straight from the job log (the fresh JSON files themselves are
uploaded as workflow artifacts).

Informative, never gating: shared runners make timing numbers noisy, so
the script always exits 0 unless ``--strict`` is given (then a missing or
unparsable snapshot fails).  Run it from anywhere inside the repo::

    python benchmarks/bench_trend.py [--against REF] [--strict]

With ``--trace TRACE.jsonl`` the report also prints a per-pass wall/CPU
breakdown from a telemetry trace (written by ``--trace-out``), so CI's
smoke run surfaces where compile time actually went, not just the totals.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent.resolve()
OUT_DIR = BENCH_DIR / "out"
REPO_ROOT = BENCH_DIR.parent


def numeric_leaves(payload, prefix: str = "") -> dict[str, float]:
    """Flatten every int/float leaf into ``dotted.path -> value``."""
    leaves: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            leaves.update(numeric_leaves(value, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            leaves.update(numeric_leaves(value, f"{prefix}{index}."))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        leaves[prefix.rstrip(".")] = float(payload)
    return leaves


def committed_snapshot(ref: str, path: Path) -> dict | None:
    """The baseline ``path`` as committed at ``ref``; None if absent or
    unparsable there (a corrupt baseline must degrade to "no baseline", never crash
    the non-gating trend report)."""
    relative = path.relative_to(REPO_ROOT).as_posix()
    proc = subprocess.run(
        ["git", "show", f"{ref}:{relative}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        print(f"== {path.name} == baseline at {ref} unparsable: {exc}", file=sys.stderr)
        return None


def render_trend(name: str, old: dict[str, float], new: dict[str, float]) -> list[str]:
    """One table of old -> new deltas, keys union-ordered, new-only last."""
    lines = [f"== {name} =="]
    width = max((len(key) for key in {**old, **new}), default=0)
    for key in sorted({**old, **new}):
        before, after = old.get(key), new.get(key)
        if before is None:
            lines.append(f"  {key:<{width}}  (new)            {after:.6g}")
        elif after is None:
            lines.append(f"  {key:<{width}}  {before:.6g} -> (gone)")
        elif before == after:
            lines.append(f"  {key:<{width}}  {before:.6g} (unchanged)")
        else:
            delta = (after - before) / abs(before) * 100 if before else float("inf")
            lines.append(
                f"  {key:<{width}}  {before:.6g} -> {after:.6g}  ({delta:+.1f}%)"
            )
    return lines


def render_trace_passes(path: Path) -> list[str]:
    """Per-pass breakdown of a telemetry trace, trend-report style.

    Imports the library lazily (with a ``src/`` path fallback) so the
    plain trend diff stays runnable without any import at all; the
    summarizer is the same one ``repro telemetry summarize`` uses, so the
    two reports can never disagree on how spans are aggregated.
    """
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.obs.summarize import load_trace, summarize_trace

    summary = summarize_trace(load_trace(path))
    lines = [f"== {path.name}: per-pass breakdown =="]
    passes = summary["passes"]
    width = max((len(name) for name in passes), default=4)
    for name, row in sorted(
        passes.items(), key=lambda item: -item[1]["wall_seconds"]
    ):
        mean_ms = row["wall_seconds"] / row["calls"] * 1e3 if row["calls"] else 0.0
        lines.append(
            f"  {name:<{width}}  calls {row['calls']:>4d}  "
            f"wall {row['wall_seconds']:>8.4f} s  cpu {row['cpu_seconds']:>8.4f} s  "
            f"mean {mean_ms:>7.2f} ms"
        )
    if summary["compiles"]:
        lines.append(f"  compilations: {summary['compiles']}")
    return lines


def render_passes_summary(path: Path) -> str:
    """One line from a BENCH_passes.json snapshot: what the rewrite bought.

    ``rewrite shrink: X% nodes`` is the mean shrink across families;
    ``online-reshape Yx`` is the end-to-end on-vs-off wall ratio.  Meant
    for the CI job log, next to the numeric trend tables.
    """
    payload = json.loads(path.read_text())
    shrink = payload["shrink"]
    mean_pct = sum(row["shrink_pct"] for row in shrink.values()) / len(shrink)
    span = (
        f"{min(row['shrink_pct'] for row in shrink.values()):.1f}"
        f"-{max(row['shrink_pct'] for row in shrink.values()):.1f}%"
    )
    reshape = payload["online_reshape"]
    return (
        f"rewrite shrink: {mean_pct:.1f}% nodes "
        f"(mean over {len(shrink)} families, {span}), "
        f"online-reshape {reshape['on_over_off']:.2f}x "
        f"(on {reshape['on_s']:.3f}s vs off {reshape['off_s']:.3f}s)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--against", default="HEAD", metavar="REF",
        help="git ref holding the baseline snapshots (default HEAD)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when a snapshot is missing or unreadable",
    )
    parser.add_argument(
        "--trace", metavar="FILE", type=Path,
        help="telemetry trace (JSONL) to break down per pass",
    )
    parser.add_argument(
        "--passes", metavar="FILE", type=Path,
        help="BENCH_passes.json snapshot to summarize in one line",
    )
    args = parser.parse_args(argv)

    failures = 0
    snapshots = sorted(OUT_DIR.glob("BENCH_*.json"))
    if not snapshots:
        print(f"no BENCH_*.json snapshots found in {OUT_DIR}", file=sys.stderr)
        failures += 1
    for path in snapshots:
        try:
            current = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"== {path.name} == unreadable: {exc}", file=sys.stderr)
            failures += 1
            continue
        baseline = committed_snapshot(args.against, BENCH_DIR / path.name)
        if baseline is None:
            print(f"== {path.name} == not in {args.against} (new snapshot)")
            continue
        print(
            "\n".join(
                render_trend(
                    path.name, numeric_leaves(baseline), numeric_leaves(current)
                )
            )
        )
    if args.trace is not None:
        try:
            print("\n".join(render_trace_passes(args.trace)))
        except Exception as exc:  # unreadable/invalid trace
            print(f"== {args.trace} == no per-pass breakdown: {exc}", file=sys.stderr)
            failures += 1
    if args.passes is not None:
        try:
            print(render_passes_summary(args.passes))
        except Exception as exc:  # unreadable/missing snapshot
            print(f"== {args.passes} == no rewrite summary: {exc}", file=sys.stderr)
            failures += 1
    return 1 if args.strict and failures else 0


if __name__ == "__main__":
    sys.exit(main())
