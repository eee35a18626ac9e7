"""Offline-only stall sweep: which fig14-shaped jobs the offline mapper cannot map.

Run:  PYTHONPATH=src python benchmarks/offline_sweep.py [--write]

Runs translate -> rewrite -> offline-map (no online pass) for the four
benchmark families at 4, 9, 16, 25 and 36 qubits and seeds 0-23, with
fig14's mapping settings (``virtual_size=2``, ``rsl_size=96``).  Prints
every failing ``(family, qubits, seed)`` with its error, then the failing
set.  Exits 1 if that set differs from the one committed next to this
script (``offline_sweep_failures.json``), so a mapper change that fixes a
stall, or causes one, shows up; ``--write`` re-pins the committed set
after an intentional change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.circuits import make_benchmark
from repro.errors import MappingError
from repro.passes.rewrite import RewritePass
from repro.pipeline import OfflineMapPass, Pipeline, PipelineSettings, TranslatePass

FAMILIES = ("qaoa", "qft", "rca", "vqe")
QUBITS = (4, 9, 16, 25, 36)
SEEDS = range(24)
SETTINGS = PipelineSettings(
    fusion_success_rate=0.75,
    resource_state_size=7,
    rsl_size=96,
    virtual_size=2,
    max_rsl=10**5,
)
EXPECTED_PATH = Path(__file__).with_name("offline_sweep_failures.json")


def sweep() -> list[tuple[str, int, int]]:
    """Every failing ``(family, qubits, seed)``, in sweep order."""
    pipeline = Pipeline(
        SETTINGS, passes=(TranslatePass(), RewritePass(), OfflineMapPass())
    )
    failures = []
    for family in FAMILIES:
        for qubits in QUBITS:
            for seed in SEEDS:
                circuit = make_benchmark(family, qubits, seed=seed)
                try:
                    pipeline.run_circuit(circuit, seed)
                except MappingError as error:
                    failures.append((family, qubits, seed))
                    print(f"FAIL {family}-{qubits} seed {seed}: {error}", flush=True)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="re-pin the committed failing set"
    )
    args = parser.parse_args()
    start = time.perf_counter()
    failures = sweep()
    jobs = len(FAMILIES) * len(QUBITS) * len(SEEDS)
    print(
        f"{len(failures)} of {jobs} jobs fail to map "
        f"({time.perf_counter() - start:.1f} s):"
    )
    print(json.dumps([list(failure) for failure in failures]))
    if args.write:
        rows = ",\n".join(f" {json.dumps(list(failure))}" for failure in failures)
        EXPECTED_PATH.write_text(f"[\n{rows}\n]\n" if failures else "[]\n")
        return 0
    expected = {tuple(item) for item in json.loads(EXPECTED_PATH.read_text())}
    actual = set(failures)
    if actual != expected:
        print(f"newly failing: {sorted(actual - expected)}")
        print(f"newly mapping: {sorted(expected - actual)}")
        return 1
    print(f"failing set matches {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
