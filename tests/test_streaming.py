"""Streaming execution: the runner contract, end to end.

Pins the guarantees at toy scale (bench-scale golden coverage lives in
benchmarks/test_experiment_determinism.py):

* ``iter_jobs`` yields records in canonical order, byte-identical to
  ``run_jobs``, for both backends and for varying worker counts;
* records really stream — the serial generator yields record N before job
  N+1 runs, and the process generator drains through the reorder buffer;
* ``Experiment.iter_records`` + ``ExperimentResult.from_stream`` rebuild
  the exact result of a blocking ``run``;
* the incremental stream writers flush per record (CSV fixed-header
  semantics, JSONL losslessness).
"""

import json

import pytest

from repro.errors import ReproError
from repro.experiments import (
    CompileJob,
    Experiment,
    ExperimentResult,
    FnJob,
    ProcessRunner,
    SerialRunner,
    canonical_json,
    make_runner,
)
from repro.experiments.common import stream_for
from repro.experiments.streams import (
    CsvStreamWriter,
    JsonlStreamWriter,
    make_stream_writer,
)
from repro.pipeline import PipelineSettings

#: Jobs append their key here as they *execute*; tests that prove records
#: stream before the sweep finishes read it mid-iteration (serial runner
#: only — pool workers append to their own copy).
EXECUTED: list[str] = []


def _point(x: int, seed: int) -> dict:
    EXECUTED.append(f"fn/{x}")
    rng = stream_for("stream-toy", seed).child(x).generator
    return {"x": x, "value": float(rng.integers(0, 1000))}


def _boom() -> dict:
    raise ValueError("kaboom")


class StreamToy(Experiment):
    """Mixed fn/compile toy sweep: enough shape to exercise both backends."""

    name = "stream-toy"
    description = "streaming contract probe"

    def build_jobs(self, scale, seed):
        jobs = [
            FnJob(key=f"fn/{x}", fn=_point, kwargs={"x": x, "seed": seed})
            for x in range(6)
        ]
        settings = PipelineSettings(
            fusion_success_rate=0.9, rsl_size=24, virtual_size=2, max_rsl=10**5
        )
        jobs.append(
            CompileJob(
                key="compile/qaoa4",
                meta={"benchmark": "QAOA-4", "compiler": "oneperc"},
                family="qaoa",
                num_qubits=4,
                settings=settings,
                seed=seed,
            )
        )
        return jobs

    def render(self, records):
        return f"{len(records)} records"


REFERENCE = StreamToy().run("bench", seed=5, runner=SerialRunner())


class TestIterJobs:
    """iter_jobs == run_jobs, for both backends and several widths."""

    @pytest.mark.parametrize(
        "runner_name,kwargs",
        [
            ("serial", {}),
            ("process", {"max_workers": 1}),
            ("process", {"max_workers": 4}),
            ("process", {"max_workers": 2}),
        ],
    )
    def test_stream_matches_blocking_canonical_order(self, runner_name, kwargs):
        runner = make_runner(runner_name, **kwargs)
        jobs = StreamToy().build_jobs("bench", 5)
        streamed = list(
            runner.iter_jobs(jobs, experiment="stream-toy", scale="bench", seed=5)
        )
        assert [record.job for record in streamed] == [job.key for job in jobs]
        assert canonical_json(streamed) == canonical_json(REFERENCE.records)

    def test_serial_yields_before_later_jobs_run(self):
        EXECUTED.clear()
        jobs = StreamToy().build_jobs("bench", 5)
        stream = SerialRunner().iter_jobs(
            jobs, experiment="stream-toy", scale="bench", seed=5
        )
        first = next(stream)
        assert first.job == "fn/0"
        assert EXECUTED == ["fn/0"]  # nothing past the first yield has run
        rest = list(stream)
        assert len(rest) == len(jobs) - 1
        assert len(EXECUTED) == 6  # every fn job ran exactly once

    def test_pool_stream_restores_canonical_order(self):
        # Pool workers finish out of order; the reorder buffer must hide
        # that entirely.
        jobs = StreamToy().build_jobs("bench", 5)
        runner = make_runner("process", max_workers=4)
        keys = [
            record.job
            for record in runner.iter_jobs(
                jobs, experiment="stream-toy", scale="bench", seed=5
            )
        ]
        assert keys == [job.key for job in jobs]

    def test_failures_name_the_job(self):
        jobs = [FnJob(key="boom/1", fn=_boom, kwargs={})]
        for runner in (SerialRunner(), make_runner("process", max_workers=2)):
            with pytest.raises(ReproError, match="boom/1"):
                list(
                    runner.iter_jobs(
                        jobs, experiment="stream-toy", scale="bench", seed=0
                    )
                )


class TestStreamedResults:
    def test_iter_records_plus_from_stream_equals_run(self):
        experiment = StreamToy()
        stream = experiment.iter_records("bench", seed=5, runner="serial")
        result = ExperimentResult.from_stream(experiment, stream, runner="serial")
        assert canonical_json(result.records) == canonical_json(REFERENCE.records)
        assert result.text == REFERENCE.text
        assert result.runner == REFERENCE.runner == "serial"
        assert (result.experiment, result.scale, result.seed) == (
            REFERENCE.experiment,
            REFERENCE.scale,
            REFERENCE.seed,
        )

    def test_from_stream_accepts_runner_object_and_rejects_empty(self):
        experiment = StreamToy()
        records = list(experiment.iter_records("bench", seed=5))
        result = ExperimentResult.from_stream(
            experiment, records, runner=ProcessRunner(max_workers=2)
        )
        assert result.runner == "process"
        with pytest.raises(ReproError, match="no records"):
            ExperimentResult.from_stream(experiment, [])

    def test_iter_records_validates_eagerly(self):
        # Usage errors surface at the call site, not at the first next().
        with pytest.raises(ValueError):
            StreamToy().iter_records("huge", seed=0)
        with pytest.raises(ReproError):
            StreamToy().iter_records("bench", seed=0, runner="bogus")


class TestStreamWriters:
    def test_jsonl_is_lossless_and_flushes_per_record(self, tmp_path):
        path = tmp_path / "records.jsonl"
        writer = make_stream_writer(str(path))
        assert isinstance(writer, JsonlStreamWriter)
        with writer:
            for count, record in enumerate(REFERENCE.records, start=1):
                writer.write(record)
                # Per-record flush: the file holds every record so far.
                assert len(path.read_text().splitlines()) == count
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["job"] for line in lines] == [
            record.job for record in REFERENCE.records
        ]
        assert [line["fields"] for line in lines] == [
            record.fields for record in REFERENCE.records
        ]
        assert all("timings" in line and "metrics" in line for line in lines)

    def test_csv_homogeneous_rows_match_to_csv(self, tmp_path):
        # All-fn experiments share one schema, so the streamed CSV is the
        # exact bytes of the blocking exporter.
        records = REFERENCE.records[:-1]  # drop the compile job
        homogeneous = ExperimentResult.from_stream(StreamToy(), records)
        path = tmp_path / "records.csv"
        with make_stream_writer(str(path)) as writer:
            for record in records:
                writer.write(record)
            assert not writer.dropped_keys
        # read_bytes: read_text would fold the CSV dialect's \r\n away.
        assert path.read_bytes().decode() == homogeneous.to_csv()

    def test_csv_mixed_schema_drops_and_counts_novel_columns(self, tmp_path):
        path = tmp_path / "records.csv"
        with make_stream_writer(str(path)) as writer:
            assert isinstance(writer, CsvStreamWriter)
            for record in REFERENCE.records:  # fn rows first, compile row last
                writer.write(record)
            assert "rsl_count" in writer.dropped_keys
        header = path.read_text().splitlines()[0].split(",")
        assert "x" in header and "rsl_count" not in header
        assert len(path.read_text().splitlines()) == len(REFERENCE.records) + 1

    def test_csv_zero_records_still_writes_a_header(self, tmp_path):
        # A sweep that dies before its first record (or filters everything
        # out) must not leave a headerless CSV behind — to_csv never does.
        path = tmp_path / "empty.csv"
        with make_stream_writer(str(path)):
            pass
        lines = path.read_text().splitlines()
        assert lines == ["experiment,scale,seed,job"]

    def test_csv_zero_records_header_honors_fieldnames_hint(self, tmp_path):
        path = tmp_path / "empty.csv"
        hint = ["experiment", "scale", "seed", "job", "x", "value"]
        with make_stream_writer(str(path), fieldnames=hint):
            pass
        assert path.read_text().splitlines() == [",".join(hint)]

    def test_csv_fieldnames_hint_fixes_the_header_for_real_rows(self, tmp_path):
        path = tmp_path / "records.csv"
        hint = list(REFERENCE.records[0].flat())
        with make_stream_writer(str(path), fieldnames=hint) as writer:
            writer.write(REFERENCE.records[0])
        assert path.read_text().splitlines()[0] == ",".join(hint)

    def test_construction_failure_closes_the_handle(self, tmp_path, monkeypatch):
        from repro.experiments import streams

        opened = []
        real_open = open

        def spy_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        class Exploding(CsvStreamWriter):
            def __init__(self, handle, fieldnames=None):
                raise RuntimeError("writer construction failed")

        monkeypatch.setattr(streams, "open", spy_open, raising=False)
        monkeypatch.setattr(streams, "CsvStreamWriter", Exploding)
        with pytest.raises(RuntimeError, match="construction failed"):
            streams.make_stream_writer(str(tmp_path / "leak.csv"))
        assert len(opened) == 1
        assert opened[0].closed  # the handle did not leak
