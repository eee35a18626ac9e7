"""Timing floors for the compile service (``repro.serve``).

Three checks:

* **Cold vs warm request latency** — one compile-heavy experiment request
  (table2) against a server holding a disk cache: the first request
  compiles everything, the second replays the warm store.  This is the
  service's headline — repeat traffic costs deserialization plus protocol
  overhead, not recompilation — with a conservative floor (the cache
  bench pins the raw ~hundreds-x pipeline-level win; here the experiment
  harness and socket round-trips are inside the measurement).

* **Coalesced vs serial throughput** — N identical concurrent requests
  (single-flight coalesces them onto one compile) against the same N
  requests issued back-to-back on a cache-less server.  Coalescing must
  make the burst cost about one compile, not N.

* **Golden byte-identity** — asserted, not timed: the streamed records of
  a served request equal a local ``Experiment.run``'s byte for byte, so
  the floors can never be met by a server that broke determinism.
"""

from __future__ import annotations

import threading
import time

from repro.experiments.api import canonical_json, get_experiment
from repro.pipeline.cache import DiskCache
from repro.serve import ServeClient, ServeConfig, ServerThread

#: Compile-heavy request for the cold/warm latency pair.  table2 is all
#: CompileJobs, so its warm pass is nearly pure cache replay (fig14/fig15
#: mix in FnJobs whose Monte-Carlo loops never touch the artifact cache).
LATENCY_EXPERIMENT = "table2"
#: Fast request for the coalescing burst (runs in about 0.1 s, so the
#: serial comparison stays cheap at N clients).
BURST_EXPERIMENT = "fig15"
BURST_CLIENTS = 4
#: How long the held burst producer waits for the other clients to join
#: its flight before it fails the burst.
JOIN_TIMEOUT_S = 30.0

#: Acceptance floors — deliberately far under the typical ratios (warm
#: runs usually land >10x, coalesced bursts near Nx) so scheduler noise
#: on CI runners never trips them, while a real regression (cache or
#: single-flight silently disabled) still does.
WARM_FLOOR = 2.0
COALESCE_FLOOR = 1.5


def _submit_timed(client: ServeClient, request: dict) -> tuple[float, object]:
    start = time.perf_counter()
    run = client.submit(request).raise_for_error()
    return time.perf_counter() - start, run


def _hold_until_joined(server, joiners: int):
    """Wrap ``server``'s experiment producer so it starts only once
    ``joiners`` more requests have coalesced onto its flight.

    The burst job finishes faster than a late client thread connects; a
    client that finds the flight already retired opens a second one, whose
    stream differs in its timing fields.  Holding the producer makes the
    burst provably one flight.  A client that never joins fails the burst
    after ``JOIN_TIMEOUT_S`` with an error frame.
    """
    produce = server._produce_experiment
    before = server.singleflight.stats()["coalesced"]

    def held(stream, request, start):
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        while server.singleflight.stats()["coalesced"] - before < joiners:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"burst producer: fewer than {joiners} clients joined "
                    f"within {JOIN_TIMEOUT_S}s"
                )
            time.sleep(0.001)
        produce(stream, request, start)

    return held


def test_serve_latency_and_coalescing_snapshot(tmp_path, monkeypatch):
    request = {"op": "experiment", "name": LATENCY_EXPERIMENT}

    # -- cold vs warm latency against a disk-cached server ------------------
    cache = DiskCache(tmp_path / "store")
    with ServerThread(ServeConfig(port=0, cache=cache)) as st, ServeClient(
        port=st.port
    ) as client:
        client.wait_until_up()
        cold_s, cold = _submit_timed(client, request)
        warm_s, warm = _submit_timed(client, request)
    warm_speedup = cold_s / warm_s

    # byte-identity gate: the floors are meaningless off a broken server
    local = get_experiment(LATENCY_EXPERIMENT).run("bench")
    assert canonical_json(cold.records) == canonical_json(local.records)
    assert canonical_json(warm.records) == canonical_json(local.records)
    assert warm.summary["cache"]["hit_rate"] > 0.9

    # -- coalesced burst vs serial repeats (no cache: compiles are real) ----
    burst_request = {"op": "experiment", "name": BURST_EXPERIMENT}
    with ServerThread(ServeConfig(port=0)) as st:
        clients = [ServeClient(port=st.port) for _ in range(BURST_CLIENTS)]
        clients[0].wait_until_up()

        serial_start = time.perf_counter()
        for client in clients:
            client.submit(burst_request).raise_for_error()
        serial_s = time.perf_counter() - serial_start

        monkeypatch.setattr(
            st.server,
            "_produce_experiment",
            _hold_until_joined(st.server, BURST_CLIENTS - 1),
        )
        runs: list = [None] * BURST_CLIENTS
        barrier = threading.Barrier(BURST_CLIENTS)

        def submit(slot: int) -> None:
            barrier.wait(timeout=30)
            runs[slot] = clients[slot].submit(burst_request)

        threads = [
            threading.Thread(target=submit, args=(slot,))
            for slot in range(BURST_CLIENTS)
        ]
        burst_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        burst_s = time.perf_counter() - burst_start
        flight = st.server.singleflight.stats()
        for client in clients:
            client.close()
    for run in runs:
        run.raise_for_error()
    # every client of the burst received the complete identical stream
    reference = runs[0].raw
    assert all(run.raw == reference for run in runs[1:])
    # the serial repeats each started a flight; the burst shared one
    assert flight["coalesced"] == BURST_CLIENTS - 1
    assert flight["started"] == BURST_CLIENTS + 1
    assert sum(run.coalesced for run in runs) == BURST_CLIENTS - 1
    coalesce_speedup = serial_s / burst_s

    assert warm_speedup >= WARM_FLOOR, (
        f"warm request only {warm_speedup:.2f}x over cold (floor {WARM_FLOOR}x)"
    )
    assert coalesce_speedup >= COALESCE_FLOOR, (
        f"coalesced burst only {coalesce_speedup:.2f}x over serial repeats "
        f"(floor {COALESCE_FLOOR}x)"
    )
