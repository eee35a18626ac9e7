"""The compile service end to end: golden identity, coalescing, lifecycle.

Pins the tentpole contracts over real sockets (loopback TCP and a Unix
socket), with the server hosted on a background event loop:

* records streamed through the server are byte-identical to a local
  ``Experiment.run`` — cache off, cache on, and on the warm second hit;
* a concurrent same-key burst executes exactly one underlying sweep while
  every client receives the complete identical byte stream;
* the summary frame round-trips into ``ExperimentResult`` (record-derived
  cache counts only), the stats op serves the registry's request and
  cache counters, protocol errors fail the request but not the
  connection, and graceful shutdown drains in-flight requests to their
  terminal frame;
* a client reuses one connection across submits and never reuses one
  whose stream did not end cleanly, request keys build no circuit, and
  every malformed request line (fuzzed) gets exactly one protocol error.

The experiments used here are registered toys: fast deterministic FnJobs
plus one real (tiny) CompileJob, and a gated variant whose first job
blocks on a module Event so tests can hold a request in flight on purpose
(the server's workers share this process, so the Event reaches them).
"""

import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hs

from repro.circuits.benchmarks import make_benchmark
from repro.errors import ReproError
from repro.experiments.api import (
    CompileJob,
    Experiment,
    FnJob,
    canonical_json,
)
from repro.experiments.common import stream_for
from repro.pipeline import PipelineSettings
from repro.pipeline.cache import DiskCache
from repro.serve import (
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServerError,
    ServerThread,
    decode_frame,
    request_key,
)
from repro.serve.protocol import MAX_FRAME_BYTES, OPS, PROTOCOL_VERSION

#: Appended per job *execution* — the burst test's "exactly one compile"
#: witness (serve toys run on the serial runner inside this process).
EXECUTED: list[str] = []

#: Gate blocking ``serve-gated``'s first job; tests release it once every
#: client of the burst has joined the in-flight stream.
GATE = threading.Event()

_TOY_SETTINGS = PipelineSettings(
    fusion_success_rate=0.9, rsl_size=24, virtual_size=2, max_rsl=10**5
)


def _point(x: int, seed: int) -> dict:
    EXECUTED.append(f"point/{x}")
    rng = stream_for("serve-toy", seed).child(x).generator
    return {"x": x, "value": float(rng.integers(0, 1000))}


def _gated_point(x: int, seed: int) -> dict:
    if x == 0:
        GATE.wait(timeout=30)
    EXECUTED.append(f"gated/{x}")
    rng = stream_for("serve-gated", seed).child(x).generator
    return {"x": x, "value": float(rng.integers(0, 1000))}


class ServeToy(Experiment):
    name = "serve-toy"
    description = "service contract probe"

    def build_jobs(self, scale, seed):
        jobs = [
            FnJob(key=f"fn/{x}", fn=_point, kwargs={"x": x, "seed": seed})
            for x in range(4)
        ]
        jobs.append(
            CompileJob(
                key="compile/qaoa4",
                meta={"benchmark": "QAOA-4", "compiler": "oneperc"},
                family="qaoa",
                num_qubits=4,
                settings=_TOY_SETTINGS,
                seed=seed,
            )
        )
        return jobs

    def render(self, records):
        return f"{len(records)} records"


class ServeGated(Experiment):
    name = "serve-gated"
    description = "service in-flight probe (job 0 blocks on GATE)"

    def build_jobs(self, scale, seed):
        return [
            FnJob(key=f"fn/{x}", fn=_gated_point, kwargs={"x": x, "seed": seed})
            for x in range(3)
        ]

    def render(self, records):
        return f"{len(records)} records"


LOCAL_TOY = ServeToy().run("bench", seed=0)


@pytest.fixture(autouse=True, scope="module")
def _registered_toys():
    """Register the probe experiments for this module only.

    Registration must not happen at import time: pytest imports every test
    module during collection, and a permanently registered toy would leak
    into the registry-contents assertions of test_experiments.py.
    """
    from repro.experiments.api import EXPERIMENT_REGISTRY

    toys = {"serve-toy": ServeToy(), "serve-gated": ServeGated()}
    EXPERIMENT_REGISTRY.update(toys)
    yield
    for name in toys:
        EXPERIMENT_REGISTRY.pop(name, None)


#: Clients made by :func:`_client`; each test's teardown closes them, so
#: no pooled connection outlives its test.
CLIENTS: list[ServeClient] = []


@pytest.fixture(autouse=True)
def _reset_gate():
    GATE.clear()
    EXECUTED.clear()
    yield
    GATE.set()  # never leave a worker blocked across tests
    while CLIENTS:
        CLIENTS.pop().close()


def _client(st: ServerThread, **kwargs) -> ServeClient:
    client = ServeClient(port=st.port, **kwargs)
    CLIENTS.append(client)
    client.wait_until_up()
    return client


class TestGoldenIdentity:
    def test_streamed_records_match_local_run_cache_off(self):
        with ServerThread(ServeConfig(port=0)) as st:
            run = _client(st).submit(
                {"op": "experiment", "name": "serve-toy"}
            ).raise_for_error()
        assert canonical_json(run.records) == canonical_json(LOCAL_TOY.records)
        assert run.summary["records"] == len(LOCAL_TOY.records)

    def test_streamed_records_match_local_run_cache_on_and_warm(self, tmp_path):
        cache = DiskCache(tmp_path / "store")
        with ServerThread(ServeConfig(port=0, cache=cache)) as st:
            client = _client(st)
            request = {"op": "experiment", "name": "serve-toy"}
            cold = client.submit(request).raise_for_error()
            warm = client.submit(request).raise_for_error()
        for run in (cold, warm):
            assert canonical_json(run.records) == canonical_json(
                LOCAL_TOY.records
            )
        # the second submit hit the warm store (single-flight retired the
        # key after the first finished, so this was a fresh cache-read run)
        assert warm.summary["cache"]["hits"] > 0
        assert cold.summary["cache"]["misses"] > 0

    def test_summary_round_trips_into_experiment_result(self, tmp_path):
        cache = DiskCache(tmp_path / "store")
        with ServerThread(ServeConfig(port=0, cache=cache)) as st:
            run = _client(st).submit(
                {"op": "experiment", "name": "serve-toy"}
            ).raise_for_error()
        result = run.experiment_result()
        assert canonical_json(result.records) == canonical_json(
            LOCAL_TOY.records
        )
        # The summary is the protocol's whole terminal frame: the
        # record-derived cache counts, which the result reconstructs.
        assert set(run.summary) == {
            "frame", "v", "op", "records", "elapsed_s", "cache"
        }
        assert run.summary["cache"]["misses"] > 0
        assert result.cache_stats() == run.summary["cache"]
        assert result.to_json_obj()["cache"] == run.summary["cache"]

    def test_compile_request_streams_passes_and_result(self):
        with ServerThread(ServeConfig(port=0)) as st:
            run = _client(st).submit(
                {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                 "rate": 0.9, "rsl_size": 24, "virtual_size": 2,
                 "max_rsl": 10**5}
            ).raise_for_error()
        assert [p["pass"] for p in run.passes] == [
            "translate", "rewrite", "offline-map", "online-reshape"
        ]
        assert run.result["benchmark"] == "qaoa-4"
        assert run.result["rsl_count"] > 0
        assert run.summary["op"] == "compile"

    def test_warm_compile_streams_every_pass_from_the_cache(self, tmp_path):
        request = {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                   "rate": 0.9, "rsl_size": 24, "virtual_size": 2,
                   "max_rsl": 10**5}
        with ServerThread(ServeConfig(port=0, cache=DiskCache(tmp_path))) as st:
            cold = _client(st).submit(request).raise_for_error()
            warm = _client(st).submit(request).raise_for_error()
        # A hit still completes its stage, so it still streams a frame.
        assert [p["pass"] for p in warm.passes] == [p["pass"] for p in cold.passes]
        assert cold.result["cache"]["misses"] == 4
        assert warm.result["cache"] == {"hits": 4, "misses": 0, "hit_rate": 1.0}
        for field in ("rsl_count", "fusion_count", "logical_layers", "pl_ratio"):
            assert warm.result[field] == cold.result[field]

    def test_pass_frames_report_the_result_timings(self, tmp_path):
        """A ``pass`` frame carries the compile's own timing of its stage,
        cold (misses) and warm (hits) alike."""
        request = {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                   "rate": 0.9, "rsl_size": 24, "virtual_size": 2,
                   "max_rsl": 10**5}
        with ServerThread(ServeConfig(port=0, cache=DiskCache(tmp_path))) as st:
            cold = _client(st).submit(request).raise_for_error()
            warm = _client(st).submit(request).raise_for_error()
        assert warm.result["cache"]["hits"] == 4
        for run in (cold, warm):
            timings = run.result["pass_timings"]
            assert sorted(p["pass"] for p in run.passes) == sorted(timings)
            for frame in run.passes:
                assert frame["seconds"] == timings[frame["pass"]]

    def test_baseline_request(self):
        with ServerThread(ServeConfig(port=0)) as st:
            run = _client(st).submit(
                {"op": "baseline", "benchmark": "qaoa", "qubits": 4,
                 "rate": 0.9, "rsl_size": 24, "virtual_size": 2,
                 "max_rsl": 10**4}
            ).raise_for_error()
        assert [p["pass"] for p in run.passes] == ["translate", "baseline"]
        assert run.result["rsl_count"] > 0

    def test_compile_with_inserted_validator_and_rejection_details(self):
        """The ``passes`` request field end to end: a passing validator
        changes nothing; a rejecting one terminates the stream with an
        error frame carrying the structured diagnostics as ``details``."""
        with ServerThread(ServeConfig(port=0)) as st:
            ok = _client(st).submit(
                {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                 "rate": 0.9, "rsl_size": 24, "virtual_size": 2,
                 "max_rsl": 10**5, "passes": "validate-connectivity"}
            ).raise_for_error()
            rejected = _client(st).submit(
                {"op": "compile", "benchmark": "qft", "qubits": 25,
                 "rate": 0.9, "rsl_size": 24, "virtual_size": 2,
                 "max_rsl": 10**5, "passes": "validate-connectivity"}
            )
        assert "validate-connectivity" in [p["pass"] for p in ok.passes]
        assert ok.result["rsl_count"] > 0
        assert rejected.error is not None
        assert rejected.error["kind"] == "ValidationError"
        details = rejected.error["details"]
        assert details["error"] == "validation"
        assert details["validator"] == "validate-connectivity"
        assert any(
            d["rule"] == "connectivity/width" for d in details["diagnostics"]
        )


class TestCoalescing:
    def test_concurrent_burst_compiles_once_with_identical_bytes(self):
        """N clients, one key: one sweep executes, N identical streams."""
        n = 4
        with ServerThread(ServeConfig(port=0, max_inflight=2)) as st:
            clients = [_client(st) for _ in range(n)]
            runs: list = [None] * n
            errors: list = []
            barrier = threading.Barrier(n)

            def submit(slot):
                try:
                    barrier.wait(timeout=10)
                    runs[slot] = clients[slot].submit(
                        {"op": "experiment", "name": "serve-gated"}
                    )
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(n)
            ]
            for thread in threads:
                thread.start()
            # hold the producer until every client joined the stream — the
            # singleflight counters tick at join time, before any record
            deadline = threading.Event()
            for _ in range(200):
                stats = st.server.singleflight.stats()
                if stats["started"] + stats["coalesced"] >= n:
                    break
                deadline.wait(0.05)
            GATE.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        # exactly one underlying execution of the gated job
        assert EXECUTED.count("gated/0") == 1
        for run in runs:
            run.raise_for_error()
        # every subscriber received the complete stream, byte-identical —
        # including those that joined mid-production (full replay)
        reference = runs[0].raw
        assert len(reference) == 3 + 1  # records + summary
        assert all(run.raw == reference for run in runs[1:])
        # exactly one leader, n-1 coalesced acks
        assert sum(not run.coalesced for run in runs) == 1
        assert sum(run.coalesced for run in runs) == n - 1

    def test_request_key_separates_different_work(self):
        base = {"op": "experiment", "name": "serve-toy", "scale": "bench",
                "seed": 0, "runner": "serial", "workers": None}
        assert request_key(base) == request_key(dict(base))
        assert request_key(base) != request_key({**base, "seed": 1})
        assert request_key(base) != request_key({**base, "name": "serve-gated"})
        compile_req = {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                       "rate": 0.75, "stars": 4, "seed": 0, "rsl_size": None,
                       "virtual_size": None, "max_rsl": 10**6,
                       "passes": None}
        assert request_key(compile_req) != request_key(
            {**compile_req, "op": "baseline"}
        )
        assert request_key(compile_req) != request_key(
            {**compile_req, "qubits": 9}
        )
        assert request_key(compile_req) != request_key(
            {**compile_req, "passes": "validate-rsg"}
        )


class TestLifecycle:
    def test_stats_op_reports_live_counters(self):
        with ServerThread(ServeConfig(port=0)) as st:
            client = _client(st)
            client.submit(
                {"op": "experiment", "name": "serve-toy"}
            ).raise_for_error()
            client.submit({"op": "experiment", "name": "no-such-table"})
            stats = client.server_stats()
        assert set(stats) == {
            "uptime_s", "draining", "max_inflight", "active", "singleflight",
            "metrics",
        }
        counters = stats["metrics"]["counters"]
        assert counters["serve.requests"] == 3  # two experiments + stats
        assert counters["serve.requests.experiment"] == 2
        assert counters["serve.requests.stats"] == 1
        assert counters["serve.errors"] == 1
        assert stats["active"] == 1  # the stats request itself
        assert stats["singleflight"]["started"] == 2
        assert "serve.request_seconds" in stats["metrics"]["histograms"]
        assert stats["uptime_s"] > 0

    def test_registry_cache_counters_match_the_summaries(self, tmp_path):
        """The server's ``cache.*`` counters are the sum of what its
        responses reported: compile results counted by the server,
        experiment records adopted by the runner, neither twice."""
        compiles = [
            {"op": "compile", "benchmark": family, "qubits": 4, "rate": 0.9,
             "rsl_size": 24, "virtual_size": 2, "max_rsl": 10**5}
            for family in ("qaoa", "qft", "qaoa")
        ]
        with ServerThread(ServeConfig(port=0, cache=DiskCache(tmp_path))) as st:
            client = _client(st)
            runs = [client.submit(request).raise_for_error() for request in compiles]
            runs.append(
                client.submit(
                    {"op": "experiment", "name": "serve-toy"}
                ).raise_for_error()
            )
            counters = client.server_stats()["metrics"]["counters"]
        hits = sum(run.summary["cache"]["hits"] for run in runs)
        misses = sum(run.summary["cache"]["misses"] for run in runs)
        assert runs[2].summary["cache"]["hits"] == 4  # the repeated qaoa-4
        assert hits > 0 and misses > 0
        assert counters["cache.hits"] == hits
        assert counters["cache.misses"] == misses
        assert counters["serve.requests.compile"] == len(compiles)

    def test_unknown_experiment_is_an_error_frame(self):
        with ServerThread(ServeConfig(port=0)) as st:
            run = _client(st).submit(
                {"op": "experiment", "name": "no-such-table"}
            )
            assert run.error is not None
            with pytest.raises(ServerError):
                run.raise_for_error()
            with pytest.raises(ReproError):
                run.experiment_result()

    def test_protocol_error_does_not_kill_the_connection(self):
        with ServerThread(ServeConfig(port=0)) as st:
            _client(st)  # waits until up
            with socket.create_connection(("127.0.0.1", st.port)) as sock:
                reader = sock.makefile("rb")
                assert decode_frame(reader.readline())["frame"] == "hello"
                sock.sendall(b"this is not json\n")
                error = decode_frame(reader.readline())
                assert error["frame"] == "error"
                assert error["kind"] == "protocol"
                # same socket still serves a valid request
                sock.sendall(json.dumps({"op": "stats"}).encode() + b"\n")
                assert decode_frame(reader.readline())["frame"] == "ack"
                assert decode_frame(reader.readline())["frame"] == "stats"

    def test_removed_runner_options_are_error_frames(self):
        with ServerThread(ServeConfig(port=0)) as st:
            _client(st)  # waits until up
            with socket.create_connection(("127.0.0.1", st.port)) as sock:
                reader = sock.makefile("rb")

                def send(request):
                    sock.sendall(json.dumps(request).encode() + b"\n")
                    return decode_frame(reader.readline())

                assert decode_frame(reader.readline())["frame"] == "hello"
                error = send({"op": "experiment", "name": "serve-toy", "shards": 2})
                assert error["frame"] == "error"
                assert error["kind"] == "protocol"
                assert "shards" in error["error"]
                for request in (
                    {"op": "experiment", "name": "serve-toy", "pathfind": "scalar"},
                    {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                     "pathfind": "scalar"},
                ):
                    error = send(request)
                    assert error["frame"] == "error"
                    assert error["kind"] == "protocol"
                    assert error["error"].endswith("unknown fields ['pathfind']")
                ack = send(
                    {"op": "experiment", "name": "serve-toy", "runner": "thread"}
                )
                assert ack["frame"] == "ack"
                error = decode_frame(reader.readline())
                assert error["frame"] == "error"
                assert "serial, process" in error["error"]
                # the connection and the server keep serving after both
                assert send({"op": "stats"})["frame"] == "ack"
                assert decode_frame(reader.readline())["frame"] == "stats"

    def test_removed_rewrite_field_is_an_error_frame(self):
        """Protocol v3 dropped the ``rewrite`` field: a request that still
        carries it gets a structured error frame naming the field."""
        assert PROTOCOL_VERSION == 4
        with ServerThread(ServeConfig(port=0)) as st:
            _client(st)  # waits until up
            with socket.create_connection(("127.0.0.1", st.port)) as sock:
                reader = sock.makefile("rb")
                assert decode_frame(reader.readline())["frame"] == "hello"
                for request in (
                    {"op": "experiment", "name": "serve-toy", "rewrite": "off"},
                    {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                     "rewrite": "on"},
                    {"op": "baseline", "benchmark": "qaoa", "qubits": 4,
                     "rewrite": "off"},
                ):
                    request["v"] = PROTOCOL_VERSION
                    sock.sendall(json.dumps(request).encode() + b"\n")
                    error = decode_frame(reader.readline())
                    assert error["frame"] == "error"
                    assert error["kind"] == "protocol"
                    assert error["error"] == (
                        f"{request['op']}: unknown fields ['rewrite']"
                    )
                sock.sendall(json.dumps({"op": "stats"}).encode() + b"\n")
                assert decode_frame(reader.readline())["frame"] == "ack"
                assert decode_frame(reader.readline())["frame"] == "stats"

    def test_client_side_validation_rejects_before_the_network(self):
        client = ServeClient(port=1)  # nothing listens there
        with pytest.raises(ProtocolError):
            client.submit({"op": "experiment"})  # missing name

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        with ServerThread(
            ServeConfig(port=None, unix_path=path)
        ) as st:
            assert st.port is None
            with ServeClient(unix_path=path) as client:
                client.wait_until_up()
                run = client.submit(
                    {"op": "experiment", "name": "serve-toy"}
                ).raise_for_error()
        assert canonical_json(run.records) == canonical_json(LOCAL_TOY.records)

    def test_graceful_shutdown_drains_in_flight_request(self):
        st = ServerThread(ServeConfig(port=0, drain_timeout=30)).start()
        client = _client(st)
        outcome: dict = {}

        def submit():
            outcome["run"] = client.submit(
                {"op": "experiment", "name": "serve-gated"}
            )

        worker = threading.Thread(target=submit)
        worker.start()
        # wait until the request is actually in flight, then shut down
        for _ in range(200):
            if st.server.singleflight.stats()["inflight"]:
                break
            threading.Event().wait(0.05)
        stopper = threading.Thread(target=st.stop)
        stopper.start()
        # let shutdown reach its drain wait, then release the job
        threading.Event().wait(0.2)
        GATE.set()
        worker.join(timeout=30)
        stopper.join(timeout=30)
        run = outcome["run"].raise_for_error()
        assert len(run.records) == 3  # the drained request completed fully
        # the listener is gone: fresh connections are refused
        with pytest.raises(OSError):
            ServeClient(port=st.port or 1, timeout=0.5).submit({"op": "stats"})

    def test_request_timeout_errors_the_subscriber(self):
        with ServerThread(
            ServeConfig(port=0, request_timeout=0.2)
        ) as st:
            run = _client(st).submit(
                {"op": "experiment", "name": "serve-gated"}
            )
            assert run.error is not None
            assert run.error["kind"] == "timeout"
            GATE.set()  # let the (still running) producer finish pre-drain


_COMPILE = {"op": "compile", "benchmark": "qaoa", "qubits": 4, "rate": 0.9,
            "rsl_size": 24, "virtual_size": 2, "max_rsl": 10**5}


def _connections(client: ServeClient) -> int:
    """Connections the server has accepted so far (the stats request
    itself rides a pooled connection when one is idle)."""
    return client.server_stats()["metrics"]["counters"]["serve.connections"]


class TestConnections:
    """``ServeClient`` keeps its handshaken connections open across
    submits, and never reuses one whose stream did not end cleanly."""

    def test_sequential_submits_share_one_connection(self):
        with ServerThread(ServeConfig(port=0)) as st:
            client = _client(st)
            for _ in range(3):
                client.submit(_COMPILE).raise_for_error()
            client.submit(
                {"op": "experiment", "name": "serve-toy"}
            ).raise_for_error()
            # wait_until_up's handshake, four requests and the stats
            # request: one connection
            assert _connections(client) == 1

    def test_next_submit_after_a_request_timeout_reconnects(self):
        with ServerThread(ServeConfig(port=0, request_timeout=0.2)) as st:
            client = _client(st)
            run = client.submit({"op": "experiment", "name": "serve-gated"})
            assert run.error["kind"] == "timeout"
            GATE.set()  # let the (still running) producer finish pre-drain
            again = client.submit(
                {"op": "experiment", "name": "serve-toy"}
            ).raise_for_error()
            assert canonical_json(again.records) == canonical_json(
                LOCAL_TOY.records
            )
            assert _connections(client) == 2

    def test_threads_sharing_one_client_coalesce(self):
        with ServerThread(ServeConfig(port=0, max_inflight=2)) as st:
            client = _client(st)
            runs: list = [None, None]

            def submit(slot):
                runs[slot] = client.submit(
                    {"op": "experiment", "name": "serve-gated"}
                )

            threads = [threading.Thread(target=submit, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for _ in range(200):
                stats = st.server.singleflight.stats()
                if stats["started"] + stats["coalesced"] >= 2:
                    break
                threading.Event().wait(0.05)
            GATE.set()
            for thread in threads:
                thread.join(timeout=30)
            # each in-flight submit had a connection of its own
            assert _connections(client) == 2
        for run in runs:
            run.raise_for_error()
        assert EXECUTED.count("gated/0") == 1
        assert sorted(run.coalesced for run in runs) == [False, True]
        assert runs[0].raw == runs[1].raw

    def test_concurrent_submits_never_share_a_connection(self):
        """More threads than cores on one client, with a short switch
        interval: a connection handed to two submits at once would mix
        their streams, and a lost pool update would leak or duplicate."""
        import sys

        from repro.pipeline.cache import MemoryCache

        threads, rounds = 6, 4
        requests = [
            {**_COMPILE, "benchmark": family, "seed": seed}
            for family in ("qaoa", "qft", "rca")
            for seed in (0, 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerThread(
                ServeConfig(port=0, cache=MemoryCache(), max_inflight=2)
            ) as st:
                client = _client(st)
                mismatched: list = []
                errors: list = []

                def work(slot):
                    try:
                        for k in range(rounds):
                            request = requests[(slot + k) % len(requests)]
                            run = client.submit(request).raise_for_error()
                            family = run.result["benchmark"].split("-")[0]
                            if family != request["benchmark"]:
                                mismatched.append((request, run.result))
                    except Exception as exc:  # surfaced after join
                        errors.append(exc)

                pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in pool)
                accepted = _connections(client)
                idle = len(client._idle)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not mismatched
        assert 1 <= accepted <= threads
        assert idle == accepted  # every connection came back exactly once

    def test_exception_in_on_frame_discards_the_connection(self):
        def fail_on_first_record(frame):
            if frame["frame"] == "record":
                raise RuntimeError("consumer failed")

        with ServerThread(ServeConfig(port=0)) as st:
            client = _client(st)
            request = {"op": "experiment", "name": "serve-toy"}
            with pytest.raises(RuntimeError, match="consumer failed"):
                client.submit(request, on_frame=fail_on_first_record)
            # A reused half-read connection would replay the abandoned
            # stream's tail here instead of this request's response.
            run = client.submit(request).raise_for_error()
            assert canonical_json(run.records) == canonical_json(
                LOCAL_TOY.records
            )
            assert _connections(client) == 2

    def test_close_and_context_manager_close_idle_connections(self):
        with ServerThread(ServeConfig(port=0)) as st:
            with ServeClient(port=st.port) as client:
                client.wait_until_up()
                client.submit(_COMPILE).raise_for_error()
                assert len(client._idle) == 1
            assert client._idle == []
            # a closed client still serves, keeping nothing open
            client.submit({"op": "stats"}).raise_for_error()
            assert client._idle == []


class TestRequestKey:
    def test_key_builds_no_circuit(self, monkeypatch):
        request = {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                   "rate": 0.75, "stars": 4, "seed": 0, "rsl_size": None,
                   "virtual_size": None, "max_rsl": 10**6, "passes": None}
        key = request_key(request)

        def no_circuits(*args, **kwargs):
            raise AssertionError("request_key built a circuit")

        monkeypatch.setattr("repro.request.make_benchmark", no_circuits)
        assert request_key(request) == key

    def test_family_case_does_not_split_the_key(self):
        request = {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                   "rate": 0.75, "stars": 4, "seed": 0, "rsl_size": None,
                   "virtual_size": None, "max_rsl": 10**6, "passes": None}
        assert request_key({**request, "benchmark": "QAOA"}) == request_key(request)

    @pytest.mark.parametrize("family, qubits", [("nope", 4), ("rca", 3)])
    def test_circuits_the_factory_rejects_end_in_one_request_error(
        self, family, qubits
    ):
        with pytest.raises(ReproError) as factory:
            make_benchmark(family, qubits, seed=0)
        with ServerThread(ServeConfig(port=0)) as st:
            client = _client(st)
            run = client.submit(
                {"op": "compile", "benchmark": family, "qubits": qubits}
            )
            # the connection keeps serving after a request error
            client.submit(_COMPILE).raise_for_error()
            assert _connections(client) == 1
        assert run.frames == [run.error]
        assert run.error["kind"] == "request"
        assert run.error["error"] == str(factory.value)


#: JSON values for the wrong-type fuzz (``bool`` is never a number).
_JSON_SCALARS = (
    hs.none() | hs.booleans() | hs.integers() | hs.floats(allow_nan=False)
    | hs.text(max_size=8)
)
_JSON_VALUES = hs.recursive(
    _JSON_SCALARS,
    lambda inner: hs.lists(inner, max_size=3)
    | hs.dictionaries(hs.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

#: A valid request per op, and the JSON types each of its fields admits.
_VALID = {
    "compile": (_COMPILE, {
        "benchmark": (str,), "qubits": (int,), "rate": (int, float),
        "stars": (int,), "seed": (int,), "rsl_size": (int, type(None)),
        "virtual_size": (int, type(None)), "max_rsl": (int,),
        "passes": (str, type(None)), "id": (str, type(None)), "v": (int,),
    }),
    "experiment": ({"op": "experiment", "name": "serve-toy"}, {
        "name": (str,), "scale": (str,), "seed": (int,), "runner": (str,),
        "workers": (int, type(None)), "id": (str, type(None)), "v": (int,),
    }),
}


def _wrongly_typed(value, types) -> bool:
    return isinstance(value, bool) or not isinstance(value, types)


@hs.composite
def _wrong_field_type(draw) -> bytes:
    op = draw(hs.sampled_from(sorted(_VALID)))
    request, fields = _VALID[op]
    field = draw(hs.sampled_from(sorted(fields)))
    value = draw(_JSON_VALUES.filter(lambda v: _wrongly_typed(v, fields[field])))
    return json.dumps({**request, field: value}).encode()


_NOT_JSON = hs.binary(min_size=1, max_size=40).filter(
    lambda line: b"\n" not in line and line.strip()
)
_NOT_OBJECTS = _JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(
    lambda v: json.dumps(v).encode()
)
_UNKNOWN_OPS = hs.builds(
    lambda op, extra: json.dumps({"op": op, **extra}).encode(),
    _JSON_VALUES.filter(lambda op: op not in OPS),
    hs.dictionaries(hs.text(max_size=4), _JSON_SCALARS, max_size=2),
)
_MALFORMED = _NOT_JSON | _NOT_OBJECTS | _UNKNOWN_OPS | _wrong_field_type()


def _read_response(reader) -> list[dict]:
    """Frames up to and including the terminal one."""
    frames = []
    while not frames or frames[-1]["frame"] not in ("summary", "error", "stats"):
        frames.append(decode_frame(reader.readline()))
    return frames


class TestFrontDoorFuzz:
    """Malformed request lines each end in exactly one ``protocol`` error
    frame, and never cost the connection or the server."""

    def test_malformed_lines_get_one_protocol_error_each(self):
        with ServerThread(ServeConfig(port=0)) as st:
            _client(st)  # waits until up
            with (
                socket.create_connection(("127.0.0.1", st.port)) as sock,
                sock.makefile("rb") as reader,
            ):
                assert decode_frame(reader.readline())["frame"] == "hello"

                @settings(
                    max_examples=150,
                    deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much],
                )
                @given(_MALFORMED)
                def one_error_frame(line):
                    sock.sendall(line + b"\n")
                    error = decode_frame(reader.readline())
                    assert error["frame"] == "error"
                    assert error["kind"] == "protocol"

                one_error_frame()
                # Lines are answered in order, so a second frame for any
                # malformed line would arrive here before the ack.
                sock.sendall(json.dumps(_COMPILE).encode() + b"\n")
                frames = _read_response(reader)
        assert frames[0]["frame"] == "ack"
        assert [f["frame"] for f in frames[-2:]] == ["result", "summary"]

    def test_over_limit_line_closes_and_the_next_submit_reconnects(self):
        with ServerThread(ServeConfig(port=0)) as st:
            client = _client(st)
            (conn,) = client._idle  # the pooled connection wait_until_up made
            try:
                conn.sock.sendall(b"x" * (MAX_FRAME_BYTES + 1) + b"\n")
                error = decode_frame(conn.reader.readline())
                assert error["kind"] == "protocol"
                assert conn.reader.readline() == b""  # closed by the server
            except ConnectionResetError:
                pass  # the close reset the connection before the frame
            run = client.submit(_COMPILE).raise_for_error()
            assert run.result["rsl_count"] > 0
            assert _connections(client) == 2


def _session_span_counts(requests: list[dict]) -> list[int]:
    """The server session's span count after each of ``requests``."""
    counts = []
    with ServerThread(ServeConfig(port=0)) as st:
        client = _client(st)
        for request in requests:
            client.submit(request).raise_for_error()
            counts.append(len(st.server._tele.tracer.spans))
    return counts


class TestBoundedGrowth:
    """A server runs for as long as it is up: requests must not leave
    telemetry behind in its one session."""

    def test_compile_requests_add_no_spans(self):
        request = {"op": "compile", "benchmark": "qaoa", "qubits": 4,
                   "rate": 0.9, "rsl_size": 24, "virtual_size": 2,
                   "max_rsl": 10**5}
        assert _session_span_counts([request] * 3) == [0, 0, 0]

    def test_experiment_requests_add_no_spans(self):
        """The serve session keeps counters only: neither the records'
        compile spans nor the runner's ``run:`` span enter it."""
        counts = _session_span_counts(
            [{"op": "experiment", "name": "serve-toy"}] * 3
        )
        assert counts == [0, 0, 0]


class TestFrameSchema:
    def test_captures_pass_the_checker_and_extra_keys_fail(self, capsys, tmp_path):
        """``repro submit --frames-out`` captures are what CI's serve smoke
        step validates; the summary frame and the stats payload are pinned
        to their exact key sets."""
        import sys
        from pathlib import Path

        from repro.cli import main

        bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
        sys.path.insert(0, str(bench_dir))
        try:
            from serve_schema import validate_frames
        finally:
            sys.path.remove(str(bench_dir))
        captures = {}
        with ServerThread(ServeConfig(port=0)) as st:
            _client(st)  # waits until up
            for name, request in (
                ("compile", ["--benchmark", "qaoa", "--qubits", "4",
                             "--rate", "0.9"]),
                ("stats", ["--stats"]),
            ):
                captures[name] = tmp_path / f"{name}.jsonl"
                assert main(
                    ["submit", "--port", str(st.port), *request,
                     "--frames-out", str(captures[name])]
                ) == 0
        capsys.readouterr()
        for path in captures.values():
            assert validate_frames(path) == []
        for name, inner, extra in (
            ("compile", None, "metrics"),
            ("stats", "stats", "requests"),
        ):
            lines = captures[name].read_text().splitlines()
            terminal = json.loads(lines[-1])
            (terminal[inner] if inner else terminal)[extra] = {}
            tampered = tmp_path / f"{name}-tampered.jsonl"
            tampered.write_text("\n".join([*lines[:-1], json.dumps(terminal)]) + "\n")
            assert validate_frames(tampered) == [
                f"line {len(lines)}: unexpected keys [{extra!r}]"
            ]
