"""Cache-correctness matrix: golden records in every cache/runner config.

The artifact cache's contract is bit-exactness: for a given (experiment,
scale, seed) the canonical records must be byte-identical with the cache
off (already held by the regeneration and determinism benches), cache on
cold, cache on warm, and across the serial and process runners at varying
worker counts.  Each test walks one experiment through the matrix
in order (cold fills what warm reads) against one shared cache, asserting
the golden snapshot after every leg and checking the per-record hit/miss
provenance says what the leg should have done.

fig14 (compile jobs on tiny RSLs plus fn jobs) covers the full matrix
cheaply; table2 — the paper's headline sweep, with OneQ baseline jobs whose
repeat-until-success runs are the expensive part — covers the disk cache
shared from a serial cold run into warm process runs at two pool widths.
The last leg runs every experiment through one memory cache, so entries
cross experiments and sweep points wherever their chained keys allow.
"""

from golden_records import assert_matches_golden

from repro import obs
from repro.experiments import experiment_names, get_experiment, make_runner
from repro.obs.summarize import load_events
from repro.pipeline import DiskCache, MemoryCache


def _compile_metrics(result):
    return [record.metrics for record in result.records if record.metrics]


def _assert_all(result, name, counter):
    assert_matches_golden(name, result.records)
    per_record = _compile_metrics(result)
    assert per_record, f"{name}: no compile-job metrics surfaced"
    assert all(counter in metrics for metrics in per_record), (
        f"{name}: expected every compile record to report {counter}"
    )


def test_fig14_matrix_memory_and_disk(tmp_path):
    experiment = get_experiment("fig14")
    memory = MemoryCache()

    cold = experiment.run("bench", 0, make_runner("serial", cache=memory))
    _assert_all(cold, "fig14", "cache_misses")

    warm_serial = experiment.run("bench", 0, make_runner("serial", cache=memory))
    _assert_all(warm_serial, "fig14", "cache_hits")
    assert warm_serial.cache_stats()["hit_rate"] == 1.0

    disk = DiskCache(tmp_path / "fig14")
    cold_process = experiment.run(
        "bench", 0, make_runner("process", max_workers=2, cache=disk)
    )
    _assert_all(cold_process, "fig14", "cache_misses")

    warm_process = experiment.run(
        "bench", 0, make_runner("process", max_workers=3, cache=disk)
    )
    _assert_all(warm_process, "fig14", "cache_hits")
    assert warm_process.cache_stats()["hit_rate"] == 1.0

    # The disk cache written by process workers serves the serial runner too.
    warm_cross = experiment.run("bench", 0, make_runner("serial", cache=disk))
    _assert_all(warm_cross, "fig14", "cache_hits")


def test_table2_disk_cache_shared_across_runners(tmp_path):
    experiment = get_experiment("table2")
    disk = DiskCache(tmp_path / "table2")

    cold = experiment.run("bench", 0, make_runner("serial", cache=disk))
    _assert_all(cold, "table2", "cache_misses")
    # The bench sweep repeats circuits only across the compiler axis
    # (OnePerc vs OneQ share each circuit's translate artifact).
    assert cold.cache_stats()["hits"] > 0

    for workers in (2, 4):
        warm_process = experiment.run(
            "bench", 0, make_runner("process", max_workers=workers, cache=disk)
        )
        _assert_all(warm_process, "table2", "cache_hits")
        assert warm_process.cache_stats()["hit_rate"] == 1.0


def test_every_experiment_through_one_shared_memory_cache(tmp_path):
    runner = make_runner("serial", cache=MemoryCache())
    for name in experiment_names():
        events_path = tmp_path / f"{name}.events.jsonl"
        with obs.session(events_path=str(events_path)):
            result = get_experiment(name).run("bench", 0, runner)
        assert_matches_golden(name, result.records)
        if name != "fig12":
            continue
        # fig12's 24 points map 6 distinct (pattern, virtual size) inputs:
        # the mapper reads neither the fusion rate, the RSL size nor the
        # star size, so at least 18 points reuse a mapping.
        offline_hits = [
            event for event in load_events(events_path)
            if event["kind"] == "cache_hit" and event["stage"] == "offline-map"
        ]
        assert len(offline_hits) >= 18
        # Every fusion-rate point (panel c) hits translate, rewrite and
        # offline-map and runs only online-reshape, which reads the rate.
        rate_points = [r for r in result.records if r.job.startswith("c/")]
        assert len(rate_points) == 8
        for record in rate_points:
            counts = (record.metrics["cache_hits"], record.metrics["cache_misses"])
            assert counts == (3, 1), record.job
