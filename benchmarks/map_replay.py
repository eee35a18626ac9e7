"""Mapper replay: every ``OfflineMapper.map_pattern`` call of a bench-scale run, timed and hashed.

Run:  PYTHONPATH=src python benchmarks/map_replay.py [--repeats 5] [--write]

Records each ``map_pattern`` call (the measurement pattern and the mapper's
settings) that every registered experiment makes at ``scale="bench"``, seed
0, on the serial runner, then replays the recorded calls ``--repeats`` times
and prints the median replay time and the garbage collections per
generation one replay triggers (``gc.get_stats()`` deltas).  It also prints
a sha256 over every mapping, in the canonical form
``tests/test_offline.py::mapping_dump`` pins (a call that raises
``MappingError`` hashes its error type and message), and exits 1 if that
digest differs from the one committed next to this script
(``map_replay_digest.txt``); ``--write`` re-pins it after an intended
change of the mapping.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from repro.errors import MappingError
from repro.experiments import experiment_names, get_experiment, make_runner
from repro.offline.mapper import OfflineMapper

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_offline import mapping_dump  # noqa: E402

DIGEST_PATH = Path(__file__).with_name("map_replay_digest.txt")


def record_calls() -> list[tuple]:
    """``(mapper settings, pattern)`` of every call, in call order."""
    calls: list[tuple] = []
    original = OfflineMapper.map_pattern

    def recording(mapper, pattern):
        # The constructor arguments are exactly the mapper's attributes.
        calls.append((dict(vars(mapper)), pattern))
        return original(mapper, pattern)

    OfflineMapper.map_pattern = recording
    try:
        for name in experiment_names():
            get_experiment(name).run("bench", seed=0, runner=make_runner("serial"))
    finally:
        OfflineMapper.map_pattern = original
    return calls


def map_once(settings: dict, pattern):
    """One recorded call's mapping, or the ``MappingError`` it raised."""
    try:
        return OfflineMapper(**settings).map_pattern(pattern)
    except MappingError as error:
        return error


def replay(calls: list[tuple]) -> tuple[float, list[int]]:
    """Seconds to run every recorded call once, and the garbage collections
    per generation it triggered.  Each mapping is dropped as soon as it is
    made, as a compile does.  Holding all 108 instead takes about as long
    (1.00x on a 2-vCPU container, with twice the gen-0 collections): the
    IR's columns leave the collector nothing per node to scan."""
    before = [generation["collections"] for generation in gc.get_stats()]
    start = time.perf_counter()
    for settings, pattern in calls:
        map_once(settings, pattern)
    seconds = time.perf_counter() - start
    after = [generation["collections"] for generation in gc.get_stats()]
    return seconds, [b - a for a, b in zip(before, after)]


def digest(calls: list[tuple]) -> str:
    """sha256 over the canonical dump of each call's outcome."""
    hasher = hashlib.sha256()
    for settings, pattern in calls:
        outcome = map_once(settings, pattern)

        def run(outcome=outcome):
            if isinstance(outcome, MappingError):
                raise outcome
            return outcome

        hasher.update(json.dumps(mapping_dump(run), sort_keys=True).encode())
    return hasher.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--write", action="store_true", help="re-pin the digest")
    args = parser.parse_args()

    start = time.perf_counter()
    calls = record_calls()
    print(f"recorded {len(calls)} calls ({time.perf_counter() - start:.1f} s)")
    runs = [replay(calls) for _ in range(max(1, args.repeats))]
    times = [seconds for seconds, _collections in runs]
    print(
        f"replay: median {statistics.median(times):.3f} s over {len(times)} "
        f"repeats (min {min(times):.3f} s, max {max(times):.3f} s)"
    )
    per_generation = zip(*(collections for _seconds, collections in runs))
    print(
        "gc collections per replay (median): "
        + ", ".join(
            f"gen-{generation} {statistics.median(counts):g}"
            for generation, counts in enumerate(per_generation)
        )
    )
    actual = digest(calls)
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
