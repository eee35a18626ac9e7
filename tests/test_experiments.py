"""Unit tests for the declarative experiment API (tiny parameters).

Full bench-scale regeneration and the cross-runner determinism suite live in
benchmarks/; these tests exercise the registry, record/result plumbing, job
builders, and the runner contract at the smallest sizes that still show the
behavior.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import suitable_node_size_exhaustive

from repro.errors import ReproError
from repro.experiments import (
    EXPERIMENT_REGISTRY,
    CompileJob,
    Experiment,
    ExperimentRecord,
    FnJob,
    ProcessRunner,
    SerialRunner,
    UnknownExperimentError,
    canonical_json,
    experiment_names,
    fig13,
    fig16,
    get_experiment,
    loss,
    make_runner,
    table2,
    table3,
)
from repro.experiments.common import BenchmarkCase, check_scale, stream_for
from repro.pipeline import PipelineSettings

EXPECTED_NAMES = [
    "table2", "table3", "fig12", "fig13", "fig14", "fig15", "fig16", "loss",
    "passes",
]


class TestCommon:
    def test_check_scale(self):
        check_scale("bench")
        with pytest.raises(ValueError):
            check_scale("huge")

    def test_case_label(self):
        assert BenchmarkCase("qaoa", 9).label == "QAOA-9"

    def test_stream_deterministic(self):
        a = stream_for("x", seed=1).generator.random()
        b = stream_for("x", seed=1).generator.random()
        assert a == b


class TestRegistry:
    def test_all_experiments_registered_in_order(self):
        assert experiment_names() == EXPECTED_NAMES

    def test_get_experiment(self):
        assert get_experiment("fig16").name == "fig16"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            get_experiment("fig99")
        message = str(excinfo.value)
        assert "fig99" in message
        for name in EXPECTED_NAMES:
            assert name in message

    def test_descriptions_present(self):
        for experiment in EXPERIMENT_REGISTRY.values():
            assert experiment.description


class TestRecords:
    def record(self):
        return ExperimentRecord(
            experiment="toy",
            scale="bench",
            seed=0,
            job="a/x=1",
            fields={"x": 1, "value": 2.5},
            timings={"seconds": 0.123},
            metrics={"cache_hits": 2, "peak_memory_bytes": 64},
        )

    def test_canonical_excludes_timings_and_metrics(self):
        canonical = self.record().canonical()
        assert canonical["fields"] == {"x": 1, "value": 2.5}
        assert "timings" not in canonical
        assert "metrics" not in canonical

    def test_canonical_json_ignores_wall_clock_and_provenance(self):
        fast = self.record()
        slow = ExperimentRecord(
            "toy", "bench", 0, "a/x=1", {"x": 1, "value": 2.5}, {"seconds": 99.0},
            {"cache_hits": 0, "cache_misses": 2},
        )
        assert canonical_json([fast]) == canonical_json([slow])

    def test_flat_row_prefixes_timings_and_metrics(self):
        row = self.record().flat()
        assert row["t_seconds"] == 0.123
        assert row["m_cache_hits"] == 2
        assert row["m_peak_memory_bytes"] == 64
        assert row["job"] == "a/x=1"


def _toy_point(x: int, seed: int) -> dict:
    rng = stream_for("toy", seed).child(x).generator
    return {"x": x, "value": float(rng.integers(0, 1000))}


def _exploding_point() -> dict:
    raise ValueError("kaboom")


class ToyExperiment(Experiment):
    """Tiny mixed-job experiment used to exercise the runner contract."""

    name = "toy"
    description = "toy"

    def build_jobs(self, scale, seed):
        jobs = [
            FnJob(key=f"fn/{x}", fn=_toy_point, kwargs={"x": x, "seed": seed})
            for x in range(4)
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


class TestRunners:
    def test_all_backends_and_worker_counts_agree(self):
        experiment = ToyExperiment()
        reference = experiment.run("bench", seed=3, runner=SerialRunner())
        for runner in (
            ProcessRunner(max_workers=1),
            ProcessRunner(max_workers=2),
            ProcessRunner(max_workers=4),
        ):
            result = experiment.run("bench", seed=3, runner=runner)
            assert canonical_json(result.records) == canonical_json(reference.records)
            assert result.runner == runner.name

    def test_records_in_job_order(self):
        result = ToyExperiment().run("bench", seed=0)
        assert [record.job for record in result.records] == [
            "fn/0",
            "fn/1",
            "fn/2",
            "fn/3",
            "compile/qaoa4",
        ]

    def test_compile_record_fields_and_timings(self):
        result = ToyExperiment().run("bench", seed=0)
        record = result.records[-1]
        assert record.fields["rsl_count"] > 0
        assert record.fields["benchmark"] == "QAOA-4"
        assert "online-reshape" in record.timings

    def test_compile_record_surfaces_pass_metrics(self):
        """PassContext.metrics flow into compile-job records (non-canonical)."""
        result = ToyExperiment().run("bench", seed=0)
        record = result.records[-1]
        assert record.metrics["logical_layers_mapped"] > 0
        assert record.metrics["peak_memory_bytes"] > 0
        assert record.metrics["rsl_count"] == record.fields["rsl_count"]
        assert record.metrics["fusion_count"] == record.fields["fusion_count"]
        for fn_record in result.records[:-1]:
            assert fn_record.metrics == {}

    # A MemoryCache only shares within one process, so the process runner
    # is covered with a DiskCache below.
    @pytest.mark.parametrize("runner_name", ["serial"])
    def test_cached_runner_matches_uncached_and_counts(self, runner_name):
        from repro.pipeline import MemoryCache

        experiment = ToyExperiment()
        reference = experiment.run("bench", seed=3, runner=SerialRunner())
        cache = MemoryCache()
        runner = make_runner(runner_name, cache=cache)
        cold = experiment.run("bench", seed=3, runner=runner)
        warm = experiment.run("bench", seed=3, runner=runner)
        assert canonical_json(cold.records) == canonical_json(reference.records)
        assert canonical_json(warm.records) == canonical_json(reference.records)
        assert cold.records[-1].metrics["cache_misses"] == 4
        assert warm.records[-1].metrics["cache_hits"] == 4
        assert cold.cache_stats() == {"hits": 0, "misses": 4, "hit_rate": 0.0}
        assert warm.cache_stats() == {"hits": 4, "misses": 0, "hit_rate": 1.0}

    def test_process_runner_with_disk_cache(self, tmp_path):
        from repro.pipeline import DiskCache

        experiment = ToyExperiment()
        reference = experiment.run("bench", seed=3, runner=SerialRunner())
        cache = DiskCache(tmp_path)
        cold = experiment.run(
            "bench", seed=3, runner=ProcessRunner(max_workers=2, cache=cache)
        )
        warm = experiment.run(
            "bench", seed=3, runner=ProcessRunner(max_workers=2, cache=cache)
        )
        assert canonical_json(cold.records) == canonical_json(reference.records)
        assert canonical_json(warm.records) == canonical_json(reference.records)
        # Workers wrote through the shared directory, so the second run's
        # per-record provenance shows a full hit.
        assert warm.records[-1].metrics["cache_hits"] == 4
        assert warm.cache_stats()["hit_rate"] == 1.0

    def test_runner_by_name_and_unknown(self):
        assert make_runner("process", 2).max_workers == 2
        with pytest.raises(ReproError, match="serial, process"):
            make_runner("gpu")

    def test_result_exports(self):
        result = ToyExperiment().run("bench", seed=0)
        obj = result.to_json_obj()
        assert obj["experiment"] == "toy"
        assert len(obj["records"]) == 5
        json.dumps(obj)  # JSON-serializable end to end
        csv_text = result.to_csv()
        header = csv_text.splitlines()[0].split(",")
        assert header[:4] == ["experiment", "scale", "seed", "job"]
        assert "value" in header and "rsl_count" in header

    def test_reduce_rejects_empty(self):
        with pytest.raises(ReproError):
            ToyExperiment().reduce([])

    def test_unsupported_scale_rejected(self):
        experiment = ToyExperiment()
        experiment.scales = ("bench",)
        with pytest.raises(ReproError, match="supports scales"):
            experiment.run("paper")

    @pytest.mark.parametrize("runner", [SerialRunner(), ProcessRunner(max_workers=2)])
    def test_failures_name_the_job(self, runner):
        jobs = [FnJob(key="boom/1", fn=_exploding_point, kwargs={})]
        with pytest.raises(ReproError, match="boom/1"):
            list(runner.iter_jobs(jobs, experiment="toy", scale="bench", seed=0))


class TestJobBuilders:
    """The declarative halves, without executing the heavy jobs."""

    def test_table2_pairs_oneperc_with_oneq(self):
        jobs = get_experiment("table2").build_jobs("bench", seed=0)
        assert all(isinstance(job, CompileJob) for job in jobs)
        by_compiler = {"oneperc": 0, "oneq": 0}
        for job in jobs:
            by_compiler[job.meta["compiler"]] += 1
            assert job.baseline == (job.meta["compiler"] == "oneq")
        assert by_compiler["oneperc"] == by_compiler["oneq"] == len(jobs) // 2

    def test_table2_groups_share_settings(self):
        jobs = get_experiment("table2").build_jobs("bench", seed=0)
        distinct = {(job.settings, job.baseline) for job in jobs}
        # One settings object per (rate, cap, node side) group, times the
        # baseline flag — the runner shares one pipeline per group.
        assert len(distinct) == 2 * len(table2.SCALE_SETTINGS["bench"])

    def test_fig13_mixes_job_kinds(self):
        jobs = get_experiment("fig13").build_jobs("bench", seed=0)
        kinds = {type(job) for job in jobs}
        assert kinds == {CompileJob, FnJob}

    def test_keys_unique_across_all_experiments(self):
        for experiment in EXPERIMENT_REGISTRY.values():
            jobs = experiment.build_jobs("bench", seed=0)
            keys = [job.key for job in jobs]
            assert len(keys) == len(set(keys)), experiment.name

    def test_jobs_are_picklable(self):
        import pickle

        for experiment in EXPERIMENT_REGISTRY.values():
            for job in experiment.build_jobs("bench", seed=0):
                pickle.loads(pickle.dumps(job))


class TestTable3:
    def test_budget_dash(self):
        experiment = get_experiment("table3")
        fields = table3.map_case("qft", 16, refresh_every=None, budget=64 * 2**20, seed=0)
        assert fields["budget_exceeded"]
        assert fields["rsl_estimate"] is None
        refreshed = table3.map_case("qft", 16, refresh_every=5, budget=None, seed=0)
        assert refreshed["rsl_estimate"] > 0
        records = [
            ExperimentRecord(
                "table3", "bench", 0, "qft16/raw",
                {**fields, "benchmark": "QFT", "num_qubits": 16, "refreshed": False,
                 "refresh_every": None},
            ),
            ExperimentRecord(
                "table3", "bench", 0, "qft16/refreshed",
                {**refreshed, "benchmark": "QFT", "num_qubits": 16, "refreshed": True,
                 "refresh_every": 5},
            ),
        ]
        assert "-" in experiment.render(records)

    def test_refresh_bounds_memory(self):
        raw = table3.map_case("rca", 9, refresh_every=None, budget=None, seed=0)
        refreshed = table3.map_case("rca", 9, refresh_every=5, budget=None, seed=0)
        assert refreshed["rsl_estimate"] >= raw["rsl_estimate"]
        assert refreshed["peak_memory_bytes"] <= raw["peak_memory_bytes"]


class TestFigureHelpers:
    def test_fig13_suitable_node_size_definition(self):
        from repro.utils.rng import ensure_rng

        node = fig13.suitable_node_size(36, 0.78, trials=6, rng=ensure_rng(0))
        assert 4 <= node <= 36

    @given(
        rsl_size=st.integers(12, 36),
        rate=st.floats(0.6, 0.85),
        trials=st.integers(1, 10),
        threshold=st.floats(0.5, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fig13_decided_trials_match_exhaustive_oracle(
        self, rsl_size, rate, trials, threshold, seed
    ):
        """Trials of a node size stop renormalizing once its outcome is
        settled, yet every lattice is still sampled: the node and the
        generator's stream position equal the exhaustive loop's."""
        product_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        node = fig13.suitable_node_size(rsl_size, rate, trials, product_rng, threshold)
        expected = suitable_node_size_exhaustive(rsl_size, rate, trials, oracle_rng, threshold)
        assert node == expected
        assert product_rng.random() == oracle_rng.random()

    def test_fig16_sigmoid_shape(self):
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(1)
        tiny = fig16.success_rate(36, 6, 0.72, trials=10, rng=rng)
        large = fig16.success_rate(36, 18, 0.72, trials=10, rng=rng)
        assert large >= tiny
        assert large > 0.5

    def test_fig16_rate_ordering(self):
        from repro.utils.rng import ensure_rng

        rng = ensure_rng(2)
        low = fig16.success_rate(36, 12, 0.60, trials=10, rng=rng)
        high = fig16.success_rate(36, 12, 0.85, trials=10, rng=rng)
        assert high >= low

    def test_loss_effective_rate(self):
        assert loss.effective_rate(0.0) == pytest.approx(0.78)
        assert loss.effective_rate(0.1) == pytest.approx(0.78 * 0.9**2)
