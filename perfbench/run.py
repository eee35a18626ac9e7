"""The repository benchmark: two workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload reproduce-bench --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` runs one untraced and one traced iteration and reports the
per-layer breakdown (layer timers from ``layers.py``) plus the tracing
overhead.  Each run checks the program's outputs; a failed operation or
check is counted, reported, and makes the exit status non-zero.  The last
line of standard output is the JSON result; the full record, with
provenance, goes to ``.perfbench/results/`` (gitignored).

Seed 0 carries the golden and expected-file checks; seed 1 is the held-out
seed for confirming a claim made while tuning on others.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, ROOT, SRC, HostClock, Tally, child_env, input_seed, percentile  # noqa: E402

WORKLOADS = ("reproduce-bench", "serve-mixed")
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: ``ref`` is wall time in units of the reference loop (see ``HostClock``).
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "online_ref_per_rsl": "ref/RSL",
    "rsl_total": "RSLs",
    "fusion_total": "fusions",
    "cold_p50_ref": "ref",
    "cold_p75_ref": "ref",
    "warm_p50_ref": "ref",
    "warm_p75_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

#: The experiments registered at the time the benchmark was defined.
EXPERIMENTS = ("table2", "table3", "fig12", "fig13", "fig14", "fig15", "fig16", "loss", "passes")

#: Which end-to-end metric each layer should move, on which workload.
MOVES = (
    ("pass.online-reshape", "wall_ref, online_ref_per_rsl: reproduce-bench; cold_*, wall_ref: serve-mixed"),
    ("pass.offline-map", "wall_ref: reproduce-bench"),
    ("pass.baseline", "wall_ref: reproduce-bench"),
    ("pass.", "wall_ref: small everywhere"),
    ("online.modular_renormalize", "wall_ref: reproduce-bench"),
    ("percolation.sample_lattice", "wall_ref: reproduce-bench"),
    ("percolation.components", "wall_ref: reproduce-bench"),
    ("online.rsl_consumed", "explains rsl_total, fusion_total"),
    ("online.renorm_", "explains rsl_total, fusion_total"),
    ("online.routing_layers", "explains rsl_total, fusion_total"),
    ("online.connection_failures", "explains rsl_total, fusion_total"),
    ("online.visited_sites", "explains rsl_total, fusion_total"),
    ("online.max_storage_cycles", "explains rsl_total, fusion_total"),
    ("online.", "as pass.online-reshape"),
    ("hardware.", "as pass.online-reshape"),
    ("percolation.", "as pass.online-reshape"),
    ("experiment.", "wall_ref: reproduce-bench"),
    ("cache.", "warm_*, wall_ref: serve-mixed; nothing elsewhere"),
    ("serve.", "cold_*, warm_*, wall_ref: serve-mixed"),
    ("trace.", "tracing overhead (traced wall_ref / untraced wall_ref - 1)"),
)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def probe_setup(workload: str) -> float:
    """Spawn-to-ready seconds of one fresh process (imports + warm-up compile)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"), workload],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.stdout.read()
    finally:
        process.stdout.close()
        process.wait(timeout=120)
    if line.strip() != b"ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {process.returncode})")
    return elapsed


# ---------------------------------------------------------------------------
# Workload runners.  Each returns a dict: set-up samples, untraced
# iterations, the traced iteration (``--trace 1``), warm spans, the host
# clock that converts spans into ``ref``, the layer snapshot and peak RSS.
# ---------------------------------------------------------------------------


def iterate(run_one, seconds: float) -> list[dict]:
    """Whole iterations while the next one still fits in ``seconds``."""
    iterations: list[dict] = []
    start = time.perf_counter()
    while True:
        iterations.append(run_one())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(iterations) > seconds:
            break
    return iterations


def run_reproduce(args, tally: Tally) -> dict:
    """reproduce-bench: the work runs in this process."""
    import reproduce
    import repro.experiments  # noqa: F401
    from common import WarmProbe, warmup_compile
    from layers import Layers

    samples = [probe_setup(args.workload) for _ in range(SETUP_SAMPLES)]
    warmup_compile()

    clock = HostClock()
    run = {"setup": samples, "layers": None, "clock": clock}
    if not args.trace:
        probe = WarmProbe(tally, clock)
        run["iterations"] = iterate(
            lambda: reproduce.run_iteration(
                args.inputs, tally, clock, between=lambda: probe.sample(reproduce.PROBES_PER_OP)
            ),
            args.seconds,
        )
        run["warm"] = probe.spans
    else:
        run["iterations"] = [reproduce.run_iteration(args.inputs, tally, clock)]
        layers = Layers()
        layers.install()
        run["traced"] = reproduce.run_iteration(args.inputs, tally, clock)
        run["layers"] = layers.snapshot()
    run["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def run_serve(args, tally: Tally) -> dict:
    """serve-mixed: the work runs in ``repro serve`` subprocesses."""
    import serve_mixed

    plan = serve_mixed.make_plan(args.inputs)
    clock = HostClock()
    run = {"setup": [], "layers": None, "plan_sha256": serve_mixed.plan_hash(plan), "clock": clock}
    servers: list = []

    def start(tag: str, traced: bool = False):
        server = serve_mixed.Server(f"{os.getpid()}-{tag}", traced)
        servers.append(server)
        seconds = server.wait_ready()
        if len(run["setup"]) < SETUP_SAMPLES:
            run["setup"].append(seconds)
        return server

    def measure(server, traced: bool = False) -> dict:
        """One iteration on a fresh server, which is stopped afterwards."""
        try:
            return serve_mixed.run_iteration(server, plan, args.inputs, tally, traced, clock)
        finally:
            snapshot = server.stop()
            if snapshot is not None:
                run["layers"] = snapshot

    try:
        for k in range(SETUP_SAMPLES - 1):
            start(f"s{k}").stop()
        # The last set-up's server serves the first iteration.
        spare = [start(f"s{SETUP_SAMPLES - 1}")]

        def next_iteration() -> dict:
            return measure(spare.pop() if spare else start(f"i{len(servers)}"))

        if not args.trace:
            run["iterations"] = iterate(next_iteration, args.seconds)
        else:
            run["iterations"] = [next_iteration()]
            run["traced"] = measure(start("traced", traced=True), traced=True)
    finally:
        for server in servers:
            server.stop()
    run["rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run["warm"] = [span for it in run["iterations"] for span in it["warm"]]
    return run


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def wall_ref(figures: dict, clock) -> float:
    """One iteration's timed work in ``ref``."""
    return sum(clock.units(*span) for span in figures["wall"])


def end_to_end(run: dict, tally: Tally) -> dict[str, float]:
    iterations, clock = run["iterations"], run["clock"]
    cold = [clock.units(*span) for it in iterations for span in it["cold"]]
    warm = [clock.units(*span) for span in run["warm"]]
    online = [
        sum(seconds / clock.ref_seconds(start, end) for seconds, start, end in it["online"]) / it["rsl_total"]
        for it in iterations
    ]
    return {
        "setup_s": median(run["setup"]),
        "wall_ref": median([wall_ref(it, clock) for it in iterations]),
        "online_ref_per_rsl": median(online),
        "rsl_total": iterations[0]["rsl_total"],
        "fusion_total": iterations[0]["fusion_total"],
        "cold_p50_ref": percentile(cold, 50),
        "cold_p75_ref": percentile(cold, 75),
        "warm_p50_ref": percentile(warm, 50),
        "warm_p75_ref": percentile(warm, 75),
        "peak_rss_mb": run["rss_mb"],
        "ok_frac": 1 - tally.failed / tally.attempted,
    }


def per_layer(run: dict, workload: str) -> dict[str, float]:
    from layers import report

    traced, untraced = run["traced"], run["iterations"][0]
    metrics = report(run["layers"])
    experiments = traced.get("experiments", {})
    for name in EXPERIMENTS:
        metrics[f"experiment.{name}.s"] = experiments.get(name, 0.0)
    serve = workload == "serve-mixed"
    metrics["serve.server_ms_p50"] = median(traced["server_ms"]) if serve else 0.0
    metrics["serve.wait_ms_p50"] = median(traced["wait_ms"]) if serve else 0.0
    metrics["serve.coalesced"] = traced["coalesced"] if serve else 0
    metrics["serve.produced"] = traced["produced"] if serve else 0
    metrics["trace.overhead"] = wall_ref(traced, run["clock"]) / wall_ref(untraced, run["clock"]) - 1
    return metrics


def check_trace(snapshot: dict, metrics: dict, tally: Tally) -> None:
    """Call-count cross-checks on the traced iteration, one operation each.

    Every compile-path ``renormalize`` call forms one layer and is one
    renormalization attempt.  Vacuous where nothing compiles in-process.
    """
    tally.op()
    calls = (
        snapshot["calls"].get("online.renormalize@compile", 0),
        metrics.get("online.form_layer.calls"),
        metrics.get("online.renorm_attempts"),
    )
    tally.check(
        len(set(calls)) == 1,
        f"compile-path renormalize/form_layer calls and renorm attempts disagree: {calls}",
    )
    tally.op()
    tally.check(
        metrics.get("online.other.s", 0.0) >= 0.0,
        "form_layer + renormalize exceed the online-reshape pass time",
    )


def check_repeats(run: dict, tally: Tally) -> None:
    """Every iteration of one seed, traced or not, gives identical outputs."""
    figures = run["iterations"] + ([run["traced"]] if run.get("traced") else [])
    for later in figures[1:]:
        tally.op()
        tally.check(
            later["outputs"] == figures[0]["outputs"]
            and later["rsl_total"] == figures[0]["rsl_total"]
            and later["fusion_total"] == figures[0]["fusion_total"],
            "outputs differ between iterations of the same seed",
        )


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def provenance(args, run: dict) -> dict:
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = _git("rev-parse", "HEAD") or None
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        # The frontier BFS engine's own condition for using scipy.
        from scipy.sparse.csgraph import breadth_first_order  # noqa: F401

        engine = "scipy"
    except ImportError:
        engine = "python"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "frontier_engine": engine,
        "iterations": len(run["iterations"]),
        "plan_sha256": run.get("plan_sha256"),
        "absent_wrap_targets": (run["layers"] or {}).get("absent", []),
    }


def _git(*argv: str) -> str:
    return subprocess.run(
        ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    ).stdout.strip()


def moves(name: str) -> str:
    return next(text for prefix, text in MOVES if name.startswith(prefix))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.inputs = input_seed(args.seed)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is missing)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(1, str(SRC))

    tally = Tally()
    runner = run_serve if args.workload == "serve-mixed" else run_reproduce
    run = runner(args, tally)
    check_repeats(run, tally)
    if args.trace:
        metrics = per_layer(run, args.workload)
        check_trace(run["layers"], metrics, tally)
        for name, value in metrics.items():
            print(f"{name:42} {value:>16.6g}   {moves(name)}")
    else:
        metrics = end_to_end(run, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": _layer_unit(name) if args.trace else END_TO_END[name]}
            for name, value in metrics.items()
        },
    }
    record = {
        "provenance": provenance(args, run),
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "iterations": [_slim(it) for it in run["iterations"]],
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"provenance": record["provenance"], "failed_frac": record["failed_frac"]}))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith(("_ratio", ".overhead")):
        return "fraction"
    return "count"


def _slim(figures: dict) -> dict:
    """An iteration's figures without its outputs and raw spans."""
    return {key: value for key, value in figures.items() if key not in ("outputs", "wall", "cold", "warm", "online")}


if __name__ == "__main__":
    sys.exit(main())
