"""``serve-mixed``: a closed-loop request mix against ``repro serve``.

The server runs as a subprocess on a unix socket with a fresh disk cache
and ``--max-inflight 2``.  This process drives it as a closed loop (the
next request goes out only after the previous one completed):

1. 96 cold requests: 4 families x {(4 q, p 0.9), (9 q, p 0.9),
   (4 q, p 0.75)} x 8 request seeds.  Seed siblings share little;
   ``online-reshape`` misses and writes the cache.
2. 288 warm requests: each cold request three more times, shuffled.
   Served from the cache.
3. 8 identical pairs, each sent on two connections at once, on keys not
   seen before, so the second of a pair coalesces onto the first
   (single-flight).

Phases 1 and 2 alternate in 6 rounds (16 cold requests, then their 48 warm
repeats), so the warm latencies sample the whole run rather than one
sub-second burst.  Phases 1 and 2 use one connection: with two requests in
flight on two vCPUs, latency depends on whether the host gives the
second core, which the reference loop (one core) cannot see: the wall
and warm latencies spread by 0.11-0.16 (IQR over median, 5 seeds) even in
``ref``, against 0.05-0.10 over one connection.
Only phase 3 needs two connections.  Eight request seeds, not four, because
the cold latencies cluster by shape and which circuits a plan draws moved
``cold_p50_ref`` by 0.16 between plans.

This is the only workload where the disk cache and the serve layer do
work; a kernel change shows here only on the cold requests.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from common import OUT, ROOT, SEED_POOL, WARMUP, HostClock, Tally, child_env

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected" / "serve-mixed.json"
FAMILIES = ("qaoa", "qft", "rca", "vqe")
SHAPES = ((4, 0.9), (9, 0.9), (4, 0.75))
REQUEST_SEEDS = 8
PAIRS = 8
PAIR_SHAPE = (4, 0.75)
ROUNDS = 6
WARM_REPEATS = 3
CONNECTIONS = 2
MAX_INFLIGHT = 2
#: Result fields that must repeat exactly for one request key.
DETERMINISTIC = ("benchmark", "num_qubits", "rsl_count", "fusion_count", "logical_layers", "pl_ratio")


def make_plan(seed: int) -> dict:
    """The request plan for ``seed``: cold, warm and pair phases.

    ``warm`` holds round ``r``'s repeats at ``[r * W * k, (r + 1) * W * k)``
    (``W = WARM_REPEATS``) for the cold requests at ``[r * k, (r + 1) * k)``.  Request seeds come from
    the vetted pool, so no request fails.
    """
    rng = random.Random(seed)
    seeds = rng.sample(SEED_POOL, REQUEST_SEEDS + PAIRS)
    cold = [
        {"op": "compile", "benchmark": family, "qubits": qubits, "rate": rate, "seed": s}
        for s in seeds[:REQUEST_SEEDS]
        for family in FAMILIES
        for qubits, rate in SHAPES
    ]
    per_round = len(cold) // ROUNDS
    warm = []
    for r in range(ROUNDS):
        repeats = cold[r * per_round : (r + 1) * per_round] * WARM_REPEATS
        rng.shuffle(repeats)
        warm += repeats
    pairs = [
        {
            "op": "compile",
            "benchmark": FAMILIES[i % len(FAMILIES)],
            "qubits": PAIR_SHAPE[0],
            "rate": PAIR_SHAPE[1],
            "seed": s,
        }
        for i, s in enumerate(seeds[REQUEST_SEEDS:])
    ]
    return {"cold": cold, "warm": warm, "pairs": pairs}


def plan_hash(plan: dict) -> str:
    return hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()


def request_id(request: dict) -> str:
    return f"{request['benchmark']}/{request['qubits']}/{request['rate']}/{request['seed']}"


class Server:
    """One ``repro serve`` subprocess with its own fresh cache directory.

    ``traced`` starts it through ``serve_shim.py``, which installs the
    layer timers in the server process and writes them out on exit.
    """

    def __init__(self, tag: str, traced: bool) -> None:
        scratch = OUT / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        # Relative to the checkout root (the working directory of both
        # processes), keeping the socket path under the unix length limit.
        self.socket = str((scratch / f"{tag}.sock").relative_to(ROOT))
        self.cache_dir = scratch / f"cache-{tag}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.layers_out = scratch / f"layers-{tag}.json" if traced else None
        self.log_path = scratch / f"{tag}.log"
        serve_args = [
            "serve",
            "--unix-socket", self.socket,
            "--cache-dir", str(self.cache_dir.relative_to(ROOT)),
            "--max-inflight", str(MAX_INFLIGHT),
        ]
        if traced:
            command = [sys.executable, str(HERE / "serve_shim.py"), str(self.layers_out), *serve_args]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT
        )

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(unix_path=self.socket, timeout=120)

    def wait_ready(self) -> float:
        """Block until the first hello and a warm-up compile are answered.

        Returns seconds since spawn: the server's set-up time.
        """
        client = self.client()
        client.wait_until_up(timeout=60)
        client.submit({"op": "compile", **WARMUP}).raise_for_error()
        return time.perf_counter() - self.started

    def stop(self) -> dict | None:
        """Drain and stop the server; the traced server's layer snapshot.

        Idempotent: a second call returns ``None``.
        """
        if self._log.closed:
            return None
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self.process.returncode == 0:
            self.log_path.unlink(missing_ok=True)  # kept only to debug a crash
        if self.layers_out is not None and self.layers_out.exists():
            snapshot = json.loads(self.layers_out.read_text())
            self.layers_out.unlink()
            return snapshot
        return None


def _closed_loop(server: Server, requests: list[dict], clock: HostClock) -> list[tuple]:
    """Send ``requests`` one after another over one connection.

    The clock is sampled before each request, while nothing is in flight,
    so the reference loop never competes with the server for a core.
    Returns ``((start, end), run_or_None, exception_or_None)`` per request,
    in plan order.
    """
    client = server.client()
    out = []
    for request in requests:
        clock.sample()
        out.append(_timed_submit(client, request))
    clock.sample()
    return out


def _timed_submit(client, request: dict) -> tuple:
    start = time.perf_counter()
    try:
        run = client.submit(request)
    except Exception as exc:  # a transport failure fails this request only
        return (start, time.perf_counter()), None, exc
    return (start, time.perf_counter()), run, None


def _pairs(server: Server, requests: list[dict]) -> list[tuple]:
    """Each request sent on both connections at the same instant."""
    out: list[tuple] = []
    barrier = threading.Barrier(CONNECTIONS)
    clients = [server.client() for _ in range(CONNECTIONS)]

    def send(client, request):
        barrier.wait(timeout=60)
        return _timed_submit(client, request)

    with ThreadPoolExecutor(max_workers=CONNECTIONS) as pool:
        for request in requests:
            futures = [pool.submit(send, client, request) for client in clients]
            out.append(tuple(future.result() for future in futures))
    return out


def _outcome(request: dict, sent: tuple, tally: Tally, phase: str) -> dict | None:
    """Count one request; its deterministic result fields, or None on failure."""
    _, run, exc = sent
    tally.op()
    what = f"{phase} request {request_id(request)}"
    if exc is not None:
        tally.fail(what, exc)
        return None
    if run.error is not None or run.result is None:
        tally.fail(f"{what}: {run.error}")
        return None
    return {name: run.result.get(name) for name in DETERMINISTIC}


def expected_results(seed: int) -> dict | None:
    if seed != 0:
        return None
    return json.loads(EXPECTED.read_text())["results"]


def run_iteration(server: Server, plan: dict, seed: int, tally: Tally, traced: bool, clock: HostClock) -> dict:
    """Drive the plan once against a fresh server; the raw figures."""
    cold: list[tuple] = []
    warm: list[tuple] = []
    per_round = len(plan["cold"]) // ROUNDS
    for r in range(ROUNDS):
        cold += _closed_loop(server, plan["cold"][r * per_round : (r + 1) * per_round], clock)
        per_warm = WARM_REPEATS * per_round
        warm += _closed_loop(server, plan["warm"][r * per_warm : (r + 1) * per_warm], clock)
    start = time.perf_counter()
    pairs = _pairs(server, plan["pairs"])
    pairs_span = (start, time.perf_counter())
    clock.sample()

    expected = expected_results(seed)
    truth: dict[str, dict] = {}
    online: list[tuple[float, float, float]] = []
    for request, sent in zip(plan["cold"], cold):
        result = _outcome(request, sent, tally, "cold")
        if result is None:
            continue
        key = request_id(request)
        truth[key] = result
        online.append((sent[1].result["pass_timings"].get("online-reshape", 0.0), *sent[0]))
        if expected is not None:
            tally.check(result == expected.get(key), f"cold {key}: {result} != expected {expected.get(key)}")
    for request, sent in zip(plan["warm"], warm):
        result = _outcome(request, sent, tally, "warm")
        key = request_id(request)
        if result is not None:
            tally.check(result == truth.get(key), f"warm {key}: {result} != cold {truth.get(key)}")
    coalesced = 0
    for request, both in zip(plan["pairs"], pairs):
        results = [_outcome(request, sent, tally, "pair") for sent in both]
        coalesced += sum(1 for _, run, _ in both if run is not None and run.coalesced)
        if None not in results:
            tally.check(results[0] == results[1], f"pair {request_id(request)}: results differ")

    runs = [sent for sent in cold + warm if sent[1] is not None and sent[1].summary]
    runs += [sent for both in pairs for sent in both if sent[1] is not None and sent[1].summary]
    # The request phase without the clock samples between requests.
    wall = [sent[0] for sent in cold + warm] + [pairs_span]
    figures = {
        "wall_s": sum(t1 - t0 for t0, t1 in wall),
        "wall": wall,
        "cold": [sent[0] for sent in cold if sent[1] is not None],
        "warm": [sent[0] for sent in warm if sent[1] is not None],
        "online": online,
        "rsl_total": sum(r["rsl_count"] for r in truth.values()),
        "fusion_total": sum(r["fusion_count"] for r in truth.values()),
        "outputs": truth,
    }
    if traced:
        figures["server_ms"] = [run.summary["elapsed_s"] * 1000 for _, run, _ in runs]
        figures["wait_ms"] = [
            ((t1 - t0) - run.summary["elapsed_s"]) * 1000 for (t0, t1), run, _ in runs
        ]
        figures["coalesced"] = coalesced
        stats = server.client().server_stats()
        figures["produced"] = stats["metrics"]["counters"].get("serve.produced", 0)
    return figures
