"""Online replay: every ``OnlineReshaper.run`` call of a bench-scale run, timed and hashed.

Run:  PYTHONPATH=src python benchmarks/online_replay.py [--repeats 3] [--write]

Records each ``OnlineReshaper.run`` call (hardware config, virtual size,
RSL cap, demands, and the fusion device as it stood: its success rate,
RNG state and tally) that every registered experiment makes at
``scale="bench"``, seed 0, on the serial runner, then replays the recorded
calls ``--repeats`` times and prints the median replay time.  Unlike
``renorm_replay.py``, which replays only the carving, this covers the whole
per-RSL loop: layer formation (merging, bond sampling, retries), the carve,
the time-like connections and the routing layers.

It also prints a sha256 over every call's ``ReshapeMetrics`` fields, the
device's ``FusionTally`` (``by_kind`` included) and the device RNG's final
state (a call that raises ``ReproError`` hashes its error type and message
in place of the metrics), and exits 1 if that digest differs from the one
committed next to this script (``online_replay_digest.txt``); ``--write``
re-pins it after an intended change of the draws or counts.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.experiments import experiment_names, get_experiment, make_runner
from repro.online.timelike import OnlineReshaper

DIGEST_PATH = Path(__file__).with_name("online_replay_digest.txt")


def record_calls() -> list[tuple]:
    """``(config, virtual size, max RSL, device, demands)`` of every call, in
    call order; the device is a copy taken before the call draws."""
    calls: list[tuple] = []
    original = OnlineReshaper.run

    def recording(reshaper, demands):
        calls.append(
            (
                reshaper.config,
                reshaper.virtual_size,
                reshaper.max_rsl,
                copy.deepcopy(reshaper.device),
                list(demands),
            )
        )
        return original(reshaper, demands)

    OnlineReshaper.run = recording
    try:
        for name in experiment_names():
            get_experiment(name).run("bench", seed=0, runner=make_runner("serial"))
    finally:
        OnlineReshaper.run = original
    return calls


def reshapers(calls: list[tuple]) -> list[tuple]:
    """A fresh ``(reshaper, demands)`` per recorded call, its device a copy
    of the recorded one."""
    built = []
    for config, virtual_size, max_rsl, device, demands in calls:
        reshaper = OnlineReshaper(config, virtual_size, max_rsl=max_rsl)
        reshaper.device = copy.deepcopy(device)
        built.append((reshaper, demands))
    return built


def run_once(reshaper: OnlineReshaper, demands: list):
    """One recorded call's metrics, or the ``ReproError`` it raised."""
    try:
        return reshaper.run(demands)
    except ReproError as error:
        return error


def replay(calls: list[tuple]) -> tuple[float, list]:
    """Seconds to run every recorded call once, and ``(outcome, device)``
    per call.  The reshapers are built before the clock starts."""
    built = reshapers(calls)
    start = time.perf_counter()
    outcomes = [run_once(reshaper, demands) for reshaper, demands in built]
    seconds = time.perf_counter() - start
    return seconds, [(outcome, reshaper.device) for outcome, (reshaper, _) in zip(outcomes, built)]


def digest(results: list) -> str:
    """sha256 over each call's metrics (or error), tally and RNG state."""
    hasher = hashlib.sha256()
    for outcome, device in results:
        if isinstance(outcome, ReproError):
            entry = [type(outcome).__name__, str(outcome)]
        else:
            entry = dataclasses.asdict(outcome)
        tally = device.tally
        hasher.update(
            json.dumps(
                [
                    entry,
                    [tally.attempted, tally.succeeded, sorted(tally.by_kind.items())],
                    device.rng.bit_generator.state,
                ]
            ).encode()
        )
    return hasher.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--write", action="store_true", help="re-pin the digest")
    args = parser.parse_args()

    start = time.perf_counter()
    calls = record_calls()
    print(f"recorded {len(calls)} calls ({time.perf_counter() - start:.1f} s)")
    times = []
    results = None
    for _ in range(max(1, args.repeats)):
        seconds, results = replay(calls)
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
