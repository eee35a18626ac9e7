"""``reproduce-bench``: every registered experiment at bench scale, serially.

This is the mix users run to regenerate the paper's tables and figures.
Lattices are small, so fixed per-query overhead dominates rather than
search work; the Monte-Carlo renormalization jobs, compile jobs and the
OneQ baseline all take a share.  At seed 0 the canonical records must be
byte-equal to the checked-in golden snapshots.
"""

from __future__ import annotations

import hashlib
import json
import time

from common import ROOT, HostClock, Tally

GOLDEN_DIR = ROOT / "benchmarks" / "golden"
SCALE = "bench"
#: Warm-probe compiles after each job, i.e. per record (164 per iteration).
PROBES_PER_OP = 1


def golden_bytes(name: str, records) -> bytes:
    """The records in the golden snapshot file's own layout."""
    payload = {
        "experiment": name,
        "scale": SCALE,
        "seed": 0,
        "records": [record.canonical() for record in records],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def golden_jobs(name: str) -> list[str] | None:
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        return None
    return [entry["job"] for entry in json.loads(path.read_text())["records"]]


def check_records(name: str, seed: int, records, tally: Tally) -> None:
    """Seed 0: byte-equal to the golden file.  Other seeds: the same jobs."""
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        tally.fail(f"{name}: no golden snapshot at {path.relative_to(ROOT)}")
        return
    if seed == 0:
        tally.check(
            golden_bytes(name, records) == path.read_bytes(),
            f"{name}: seed-0 records differ from {path.relative_to(ROOT)}",
        )
    else:
        tally.check(
            [record.job for record in records] == golden_jobs(name),
            f"{name}: job list differs from the golden snapshot's",
        )


def run_iteration(seed: int, tally: Tally, clock: HostClock, between=None) -> dict:
    """Run each experiment once; returns the iteration's raw figures.

    Records are streamed so each job's span (the gap between records of
    the serial stream) is measured; ``from_stream`` then folds them into
    the result ``Experiment.run`` returns.  ``between`` runs after each
    job, outside the timed work; the clock is sampled around each job.
    """
    from repro.experiments import ExperimentResult, experiment_names, get_experiment, make_runner

    spans: list[tuple[float, float]] = []
    online: list[tuple[float, float, float]] = []
    per_experiment: dict[str, float] = {}
    outputs: dict[str, str] = {}
    rsl = fusion = 0
    for name in experiment_names():
        experiment = get_experiment(name)
        clock.sample()
        t0 = last = time.perf_counter()
        between_s = 0.0
        jobs: list[tuple[float, float]] = []
        try:
            records = []
            for record in experiment.iter_records(SCALE, seed=seed, runner=make_runner("serial")):
                now = time.perf_counter()
                jobs.append((last, now))
                records.append(record)
                if between is not None:
                    between()
                clock.sample()
                last = time.perf_counter()
                between_s += last - now
            result = ExperimentResult.from_stream(experiment, records, runner="serial")
        except Exception as exc:  # an operation boundary: count it, keep going
            tally.op()
            tally.fail(f"experiment {name} (seed {seed})", exc)
            continue
        # Counted after the stream: the warm-probe compiles in between are
        # operations of their own.
        tally.op()
        per_experiment[name] = time.perf_counter() - t0 - between_s
        spans += jobs
        for record, job in zip(records, jobs):
            # OnePerc compile jobs are the records carrying the pass timer.
            if "online-reshape" in record.timings:
                online.append((record.timings["online-reshape"], *job))
                rsl += int(record.fields["rsl_count"])
                fusion += int(record.fields["fusion_count"])
        check_records(name, seed, result.records, tally)
        outputs[name] = hashlib.sha256(golden_bytes(name, result.records)).hexdigest()
    return {
        "wall_s": sum(t1 - t0 for t0, t1 in spans),
        "wall": spans,
        "cold": spans,
        "online": online,
        "rsl_total": rsl,
        "fusion_total": fusion,
        "outputs": outputs,
        "experiments": per_experiment,
    }
