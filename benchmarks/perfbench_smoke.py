"""Check the last two lines of captured perfbench runs.

CI's perfbench smoke steps run one short seed-0 iteration of a workload
and pipe its standard output here::

    python3 perfbench/run.py --workload reproduce-bench --seed 0 \\
        --seconds 1 --trace 1 > run.txt
    python benchmarks/perfbench_smoke.py run.txt

Every file's last line must parse as strict JSON (a NaN or Infinity
fails) and report ``correct: true``, i.e. every operation succeeded and
the golden records are byte-equal.  When the provenance line before it
says the run was traced (``"trace": 1``, as ``perfbench/run.py`` writes
it), that line must also name exactly the known-stale
``repro.online.renormalize.frontier_adjacency`` as an absent wrap target,
so a refactor that renames or drops a timed binding fails instead of
silently losing per-layer coverage; and the result must carry every
``per_layer`` metric ``BENCHMARK.json`` declares.

Exit 0 when every file passes, 1 otherwise (one stderr line per failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: The wrap target perfbench still names but the product no longer has.
KNOWN_ABSENT = ["repro.online.renormalize.frontier_adjacency"]


def strict_json(text: str):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``."""

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a perfbench line")

    return json.loads(text, parse_constant=reject)


def check(text: str, per_layer: list[str]) -> list[str]:
    """The failed checks of one captured run (empty when it passes)."""
    lines = text.splitlines()
    if len(lines) < 2:
        return ["fewer than two lines: no provenance and result"]
    try:
        provenance = strict_json(lines[-2])["provenance"]
        result = strict_json(lines[-1])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"last two lines are not provenance and result: {exc!r}"]
    failures = []
    if result.get("correct") is not True:
        failures.append(
            f"correct is {result.get('correct')!r} "
            f"({result.get('failed')} of {result.get('attempted')} failed)"
        )
    if provenance.get("trace"):
        absent = provenance.get("absent_wrap_targets")
        if absent != KNOWN_ABSENT:
            failures.append(f"absent_wrap_targets is {absent!r}, expected {KNOWN_ABSENT!r}")
        metrics = result.get("metrics") or {}
        missing = [name for name in per_layer if name not in metrics]
        if missing:
            failures.append(f"per_layer metrics missing: {missing}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="captured perfbench standard output")
    args = parser.parse_args(argv)
    per_layer = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    status = 0
    for path in args.files:
        failures = check(Path(path).read_text(), per_layer)
        for failure in failures:
            print(f"{path}: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"{path}: correct")
    return status


if __name__ == "__main__":
    sys.exit(main())
