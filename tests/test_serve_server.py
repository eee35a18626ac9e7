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
  terminal frame.

The experiments used here are registered toys: fast deterministic FnJobs
plus one real (tiny) CompileJob, and a gated variant whose first job
blocks on a module Event so tests can hold a request in flight on purpose
(the server's workers share this process, so the Event reaches them).
"""

import json
import threading

import pytest

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
from repro.serve.protocol import PROTOCOL_VERSION

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


@pytest.fixture(autouse=True)
def _reset_gate():
    GATE.clear()
    EXECUTED.clear()
    yield
    GATE.set()  # never leave a worker blocked across tests


def _client(st: ServerThread, **kwargs) -> ServeClient:
    client = ServeClient(port=st.port, **kwargs)
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
        # The notifier wrappers sit outside the cache wrappers; the keys
        # still chain through them, so every cacheable stage hits.
        assert [p["pass"] for p in warm.passes] == [p["pass"] for p in cold.passes]
        assert cold.result["cache"]["misses"] == 4
        assert warm.result["cache"] == {"hits": 4, "misses": 0, "hit_rate": 1.0}
        for field in ("rsl_count", "fusion_count", "logical_layers", "pl_ratio"):
            assert warm.result[field] == cold.result[field]

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
        import socket

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
        import socket

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
        import socket

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
            client = ServeClient(unix_path=path)
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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: Runner.iter_jobs adopts every record's "
        "spans and a run: span into the server's session",
    )
    def test_experiment_requests_add_no_spans(self):
        counts = _session_span_counts(
            [{"op": "experiment", "name": "serve-toy"}] * 3
        )
        assert counts == [counts[0]] * 3


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
