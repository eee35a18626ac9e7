"""The telemetry layer: tracing, metrics, events, and the out-of-band pact.

Pins the tentpole guarantees:

* collection primitives work standalone (span ids and recorded intervals,
  counter/gauge/histogram registry semantics, per-event-flush logs);
* trace files round-trip (JSONL) and summarize into per-pass / per-run /
  cache tables;
* an adopted compilation's pass spans carry the *same* clock reads as its
  pass timings, so traces reconcile with timings exactly;
* telemetry provenance survives every runner boundary: session counters
  equal the record-derived sums for the serial and process backends
  alike, and each compile record brings its pass timings home, where the
  session builds its spans;
* **determinism**: canonical records are byte-identical with a telemetry
  session active or not, on the serial and the process runner both.
"""

import json
import pickle

import pytest

from repro import obs
from repro.circuits import make_benchmark
from repro.errors import ReproError
from repro.experiments import (
    CompileJob,
    Experiment,
    canonical_json,
    make_runner,
)
from repro.obs.summarize import (
    load_events,
    load_trace,
    render_summary,
    summarize_trace,
)
from repro.pipeline import DiskCache, MemoryCache, Pipeline, PipelineSettings

SETTINGS = PipelineSettings(
    fusion_success_rate=0.9, rsl_size=24, virtual_size=2, max_rsl=10**5
)
CIRCUIT = make_benchmark("qaoa", 4, seed=0)


class TeleToy(Experiment):
    """Compile-only toy sweep with a shared deterministic prefix.

    Two online seeds per circuit reuse one translate/offline-map prefix, so
    cached runs produce hits — the provenance the telemetry tests track.
    """

    name = "tele-toy"
    description = "telemetry provenance probe"

    def build_jobs(self, scale, seed):
        return [
            CompileJob(
                key=f"compile/{family}/{online}",
                meta={"benchmark": family},
                family=family,
                num_qubits=4,
                settings=SETTINGS,
                seed=online,
                circuit_seed=seed,
            )
            for family in ("qaoa", "qft")
            for online in (seed, seed + 1)
        ]

    def render(self, records):
        return f"{len(records)} records"


REFERENCE = TeleToy().run("bench", seed=3)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_ids_unique_across_tracers(self):
        ids = set()
        for _ in range(3):
            tracer = obs.Tracer()
            tracer.add_span("a", ts=0.0, dur=0.0)
            ids.add(tracer.spans[0]["id"])
        assert len(ids) == 3

    def test_adopt_stamps_root_attrs_only(self):
        record = REFERENCE.records[0]
        with obs.session() as tele:
            tele.adopt_record(record)
        root, *children = tele.tracer.spans
        assert root["name"] == "compile" and root["parent"] is None
        assert root["attrs"] == {
            "circuit": "qaoa-4", "qubits": 4, "job": record.job,
        }
        assert [child["name"] for child in children] == [
            f"pass:{timing.name}" for timing in record.pass_timings
        ]
        assert all(child["parent"] == root["id"] for child in children)
        assert all(child["attrs"] == {} for child in children)

    def test_add_span_records_given_interval(self):
        tracer = obs.Tracer()
        record = tracer.add_span("run:x", ts=123.0, dur=4.5, attrs={"jobs": 7})
        assert record in tracer.spans
        assert record["ts"] == 123.0 and record["dur"] == 4.5
        assert record["attrs"] == {"jobs": 7}


class TestMetrics:
    def test_counters_gauges_histograms(self):
        registry = obs.MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        registry.set_gauge("depth", 3)
        registry.observe("sizes", 10.0)
        registry.observe("sizes", 2.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 5}
        assert snapshot["gauges"] == {"depth": 3}
        assert snapshot["histograms"]["sizes"] == {
            "count": 2,
            "sum": 12.0,
            "min": 2.0,
            "max": 10.0,
        }

    def test_snapshot_is_picklable(self):
        registry = obs.MetricsRegistry()
        registry.inc("n")
        registry.observe("h", 1.0)
        clone = pickle.loads(pickle.dumps(registry.snapshot()))
        assert clone["counters"] == {"n": 1}


class TestEvents:
    def test_buffer_and_per_event_flush(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = obs.EventLog(str(path))
        log.emit("job_started", job="a")
        # Flushed before close: the file is tail-able mid-run.
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "job_started"
        log.emit("job_finished", job="a")
        log.close()
        assert len(load_events(path)) == 2
        assert not hasattr(log, "events")  # the file is the only copy

    def test_reemit_preserves_original_timestamp(self):
        log = obs.EventLog()
        event = log.emit("cache_hit", _ts=42.0, stage="translate")
        assert event["ts"] == 42.0


# ---------------------------------------------------------------------------
# Sessions and ambient helpers
# ---------------------------------------------------------------------------


class TestSession:
    def test_helpers_are_noops_without_session(self):
        assert obs.active() is None
        obs.count("x")
        obs.gauge("y", 1)
        obs.observe("z", 2.0)
        obs.event("nothing")

    def test_session_scopes_collection(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.session(events_path=str(path)) as tele:
            assert obs.active() is tele
            obs.count("c", 2)
            obs.event("e")
            tele.tracer.add_span("s", ts=0.0, dur=0.0)
            assert tele.metrics.snapshot()["counters"] == {"c": 2}
            assert len(load_events(path)) == 1
            assert [record["name"] for record in tele.tracer.spans] == ["s"]
        assert obs.active() is None

    def test_sessions_nest(self):
        with obs.session() as outer:
            with obs.session() as inner:
                obs.count("c")
                assert obs.active() is inner
            assert obs.active() is outer
            assert outer.metrics.snapshot()["counters"] == {}
            assert inner.metrics.snapshot()["counters"] == {"c": 1}


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------


class TestTraceFiles:
    def _session_with_work(self, tmp_path):
        with obs.session() as tele:
            result = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
            tele.adopt_compile(result, CIRCUIT)
            path = tmp_path / "trace.jsonl"
            tele.write_trace(str(path))
        return path

    def test_jsonl_roundtrip(self, tmp_path):
        path = self._session_with_work(tmp_path)
        trace = load_trace(path)
        assert trace["meta"]["schema"] == obs.TRACE_SCHEMA_VERSION
        names = [record["name"] for record in trace["spans"]]
        assert "compile" in names and "pass:translate" in names
        assert "histograms" in trace["metrics"]

    def test_empty_trace_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            load_trace(path)

    def test_summarize_and_render(self, tmp_path):
        path = self._session_with_work(tmp_path)
        summary = summarize_trace(load_trace(path))
        assert summary["compiles"] == 1
        assert summary["passes"]["translate"]["calls"] == 1
        assert summary["passes"]["translate"]["wall_seconds"] >= 0.0
        text = render_summary(summary)
        assert "per-pass" in text and "translate" in text and "cache" in text


# ---------------------------------------------------------------------------
# Pipeline integration
# ---------------------------------------------------------------------------


class TestPipelineTelemetry:
    def test_untraced_compile_has_no_spans_but_cpu_timings(self):
        result = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        assert not hasattr(result, "spans")
        assert [t.name for t in result.pass_timings] == [
            "translate", "rewrite", "offline-map", "online-reshape",
        ]
        assert all(type(t.cpu_seconds) is float for t in result.pass_timings)
        # A counters-only session adopts the outcome without a span.
        with obs.session(spans=False) as tele:
            tele.adopt_compile(result, CIRCUIT)
        assert tele.tracer.spans == []

    def test_traced_spans_share_timing_clock_reads(self):
        result = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        with obs.session() as tele:
            tele.adopt_compile(result, CIRCUIT)
        spans = tele.tracer.spans
        by_name = {record["name"]: record for record in spans}
        roots = [r for r in spans if r["parent"] is None]
        assert [r["name"] for r in roots] == ["compile"]
        assert roots[0]["attrs"] == {"circuit": CIRCUIT.name, "qubits": 4}
        assert roots[0]["ts"] == result.pass_timings[0].start
        assert len(spans) == 1 + len(result.pass_timings)
        for timing in result.pass_timings:
            span = by_name[f"pass:{timing.name}"]
            # Identical floats, not approximations: the span is built from
            # the timing's own clock reads.
            assert span["ts"] == timing.start
            assert span["dur"] == timing.seconds
            assert span["cpu"] == timing.cpu_seconds
            assert span["parent"] == roots[0]["id"]

    def test_results_identical_with_and_without_session(self):
        plain = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        with obs.session():
            traced = Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
        assert plain.rsl_count == traced.rsl_count
        assert plain.fusion_count == traced.fusion_count
        assert plain.logical_layers == traced.logical_layers
        assert plain.pl_ratio == traced.pl_ratio
        assert plain.metrics == traced.metrics

    def test_bfs_wavefront_histogram_collected(self):
        with obs.session() as tele:
            Pipeline(SETTINGS).compile(CIRCUIT, seed=1)
            histograms = tele.metrics.snapshot()["histograms"]
        assert histograms["online.bfs_nodes"]["count"] > 0
        assert histograms["online.bfs_nodes"]["min"] >= 1


# ---------------------------------------------------------------------------
# Runner provenance: the cross-boundary contract
# ---------------------------------------------------------------------------


def _runner_for(name, tmp_path, workers=2):
    if name == "serial":
        return make_runner("serial", cache=MemoryCache())
    return make_runner(name, max_workers=workers, cache=DiskCache(tmp_path / "cache"))


class TestRunnerProvenance:
    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_counters_reconcile_and_spans_arrive(self, name, tmp_path):
        events_path = tmp_path / "events.jsonl"
        with obs.session(events_path=str(events_path)) as tele:
            result = TeleToy().run("bench", seed=3, runner=_runner_for(name, tmp_path))
            counters = tele.metrics.snapshot()["counters"]
            spans = list(tele.tracer.spans)
        events = load_events(events_path)
        # Records are byte-identical to the no-telemetry serial reference.
        assert canonical_json(result.records) == canonical_json(REFERENCE.records)
        # Session counters == record-derived sums: one source of truth,
        # whatever process the lookups actually happened in.
        hits = sum(r.metrics.get("cache_hits", 0) for r in result.records)
        misses = sum(r.metrics.get("cache_misses", 0) for r in result.records)
        assert counters.get("cache.hits", 0) == hits
        assert counters.get("cache.misses", 0) == misses
        assert misses > 0  # a cold cache actually exercised the channel
        # Every compile job's pass timings crossed the boundary and became
        # one compile root whose pass: children carry the record's timings.
        compile_roots = {s["attrs"]["job"]: s for s in spans if s["name"] == "compile"}
        assert sorted(compile_roots) == sorted(r.job for r in result.records)
        for record in result.records:
            root = compile_roots[record.job]
            children = [s for s in spans if s["parent"] == root["id"]]
            assert [(s["name"], s["dur"], s["cpu"]) for s in children] == [
                (f"pass:{t.name}", t.seconds, t.cpu_seconds)
                for t in record.pass_timings
            ]
        assert all(
            s["parent"] in {root["id"] for root in compile_roots.values()}
            for s in spans if s["name"].startswith("pass:")
        )
        # Run lifecycle: one run span (parent side) and start/finish events.
        assert [s["name"] for s in spans if s["name"].startswith("run:")].count(
            "run:tele-toy"
        ) >= 1
        kinds = {event["kind"] for event in events}
        assert {"run_started", "run_finished", "job_started", "job_finished"} <= kinds

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_golden_records_identical_with_session_on_or_off(self, name, tmp_path):
        runner_off = _runner_for(name, tmp_path / "off")
        plain = TeleToy().run("bench", seed=3, runner=runner_off)
        with obs.session():
            traced = TeleToy().run(
                "bench", seed=3, runner=_runner_for(name, tmp_path / "on")
            )
        assert canonical_json(plain.records) == canonical_json(traced.records)
        # Flat rows (the CSV surface, m_ columns included) match too: pass
        # timings reach exports only as the t_ columns.
        assert [r.flat() for r in plain.records] and all(
            "pass_timings" not in row for row in (r.flat() for r in traced.records)
        )

    @pytest.mark.parametrize("name", ["serial", "process"])
    def test_counters_only_session_counts_cache_but_adopts_no_span(
        self, name, tmp_path
    ):
        # One worker runs the jobs in order, so the second online seed of
        # each circuit finds the first one's prefix in the cache.  With two,
        # both seeds of a circuit can compile at once and both miss.
        with obs.session(spans=False) as tele:
            result = TeleToy().run(
                "bench", seed=3, runner=_runner_for(name, tmp_path, workers=1)
            )
            counters = tele.metrics.snapshot()["counters"]
        hits = sum(r.metrics.get("cache_hits", 0) for r in result.records)
        misses = sum(r.metrics.get("cache_misses", 0) for r in result.records)
        assert hits > 0 and misses > 0
        assert counters.get("cache.hits", 0) == hits
        assert counters.get("cache.misses", 0) == misses
        assert tele.tracer.spans == []

    def test_trace_reconciles_with_record_timings(self, tmp_path):
        with obs.session() as tele:
            result = TeleToy().run("bench", seed=3)
            path = tmp_path / "trace.jsonl"
            tele.write_trace(str(path))
        summary = summarize_trace(load_trace(path))
        for name, row in summary["passes"].items():
            recorded = sum(r.timings.get(name, 0.0) for r in result.records)
            assert row["wall_seconds"] == pytest.approx(recorded)
        assert summary["compiles"] == len(result.records)
