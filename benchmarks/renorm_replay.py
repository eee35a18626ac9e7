"""Renormalization replay: every ``renormalize`` call of a bench-scale run, timed and hashed.

Run:  PYTHONPATH=src python benchmarks/renorm_replay.py [--repeats 5] [--write]

Records each ``renormalize`` call (lattice, target size, work budget) that
every registered experiment makes at ``scale="bench"``, seed 0, on the
serial runner, then replays the recorded calls ``--repeats`` times and
prints the median replay time.  It also prints a sha256 over every result's
success flag, lattice size, visited-site count, coordinate paths and node
sites, and exits 1 if that digest differs from the one committed next to
this script (``renorm_replay_digest.txt``); ``--write`` re-pins it after an
intended change of the carving.

Fig. 13(a) stops renormalizing a node size's trials once its success rate
is decided, so the calls it makes depend on the code under test.  The
replay records the exhaustive definition instead (every trial of every node
size up to the first suitable one, the test oracle
``suitable_node_size_exhaustive``), so the call set, and with it the
digest, stays the same from change to change.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import statistics
import sys
import time
from functools import partial
from pathlib import Path

from repro.experiments import experiment_names, get_experiment, make_runner

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import suitable_node_size_exhaustive  # noqa: E402

#: Every module binding of ``renormalize`` the experiments and the
#: exhaustive Fig. 13(a) oracle reach.
BINDINGS = (
    "repro.online.renormalize",
    "repro.online.timelike",
    "repro.online.modular",
    "repro.experiments.fig13",
    "repro.experiments.fig14",
    "repro.experiments.fig16",
)
DIGEST_PATH = Path(__file__).with_name("renorm_replay_digest.txt")


def record_calls() -> list[tuple]:
    """``(lattice, target_size, work_budget)`` of every call, in call order."""
    calls: list[tuple] = []
    modules = [importlib.import_module(name) for name in BINDINGS]
    originals = [module.renormalize for module in modules]
    fig13 = importlib.import_module("repro.experiments.fig13")
    suitable = fig13.suitable_node_size

    def recording(original):
        def wrapper(lattice, target_size, work_budget=None):
            calls.append((lattice.copy(), target_size, work_budget))
            return original(lattice, target_size, work_budget)

        return wrapper

    for module, original in zip(modules, originals):
        module.renormalize = recording(original)
    fig13.suitable_node_size = partial(
        suitable_node_size_exhaustive, threshold=fig13.SUITABLE_SUCCESS
    )
    try:
        for name in experiment_names():
            get_experiment(name).run("bench", seed=0, runner=make_runner("serial"))
    finally:
        for module, original in zip(modules, originals):
            module.renormalize = original
        fig13.suitable_node_size = suitable
    return calls


def replay(calls: list[tuple], renormalize) -> tuple[float, list]:
    """Seconds to run every recorded call once, and the results."""
    start = time.perf_counter()
    results = [renormalize(lattice, target, budget) for lattice, target, budget in calls]
    return time.perf_counter() - start, results


def digest(results: list) -> str:
    """sha256 over each result's flags, counts, coordinate paths and nodes."""
    hasher = hashlib.sha256()
    for result in results:
        entry = [
            result.success,
            result.lattice_size,
            result.visited_sites,
            result.vertical_paths,
            result.horizontal_paths,
            [[*key, *site] for key, site in result.node_sites.items()],
        ]
        hasher.update(json.dumps(entry).encode())
    return hasher.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--write", action="store_true", help="re-pin the digest")
    args = parser.parse_args()
    from repro.online.renormalize import renormalize

    start = time.perf_counter()
    calls = record_calls()
    print(f"recorded {len(calls)} calls ({time.perf_counter() - start:.1f} s)")
    times = []
    results = None
    for _ in range(max(1, args.repeats)):
        seconds, results = replay(calls, renormalize)
        times.append(seconds)
    print(
        f"replay: median {statistics.median(times):.3f} s over {len(times)} "
        f"repeats (min {min(times):.3f} s, max {max(times):.3f} s)"
    )
    actual = digest(results)
    print(f"digest: {actual}")
    if args.write:
        DIGEST_PATH.write_text(actual + "\n")
        return 0
    expected = DIGEST_PATH.read_text().strip()
    if actual != expected:
        print(f"digest differs from {DIGEST_PATH.name}: {expected}")
        return 1
    print(f"digest matches {DIGEST_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
