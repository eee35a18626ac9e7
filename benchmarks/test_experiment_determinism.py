"""Determinism suite: both runner backends reproduce the golden records.

The regeneration benches hold the *serial* runner to the checked-in golden
snapshots.  Here every registered experiment is additionally run on the
process runner at two per-experiment worker counts (so several pool widths
are exercised across the suite), once blocking and once as a drained
``iter_records`` stream folded back through
``ExperimentResult.from_stream``; the serial runner is streamed too.  The
canonical records must be byte-identical to the goldens every time — the
paper-level guarantee: scale/seed fix the records; the backend, the worker
count, and streaming are pure wall-clock knobs.
"""

import pytest

from golden_records import assert_matches_golden
from oracles import ScalarCarver, renormalize_module, unrewritten_passes

from repro import obs
from repro.experiments import (
    ExperimentResult,
    experiment_names,
    get_experiment,
    make_runner,
    shutdown_pools,
)
from repro.pipeline import pipeline as pipeline_module

#: Process-pool widths per experiment, (streamed, blocking) — deliberately
#: varied so the suite covers single-worker pools, odd widths, and more
#: workers than jobs-per-group.
WORKER_COUNTS = {
    "table2": (2, 3),
    "table3": (3, 2),
    "fig12": (4, 2),
    "fig13": (2, 4),
    "fig14": (3, 3),
    "fig15": (1, 4),
    "fig16": (4, 3),
    "loss": (2, 2),
    "passes": (2, 3),
}


@pytest.mark.parametrize("name", experiment_names())
def test_process_runner_matches_golden(name, once):
    # .get: an experiment registered after this table still gets covered.
    _, process_workers = WORKER_COUNTS.get(name, (2, 2))
    runner = make_runner("process", max_workers=process_workers)
    result = once(get_experiment(name).run, "bench", 0, runner)
    assert result.runner == "process"
    assert_matches_golden(name, result.records)


@pytest.mark.parametrize("name", experiment_names())
@pytest.mark.parametrize("runner_kind", ["serial", "process"])
def test_streamed_records_match_golden(runner_kind, name, once):
    experiment = get_experiment(name)
    workers, _ = WORKER_COUNTS.get(name, (2, 2))
    runner = make_runner(runner_kind, max_workers=workers)

    def drain():
        return ExperimentResult.from_stream(
            experiment, experiment.iter_records("bench", 0, runner), runner=runner
        )

    result = once(drain)
    assert result.runner == runner_kind
    assert_matches_golden(name, result.records)
    # The streamed fold reproduces the blocking result shape, not just the
    # records: same provenance and same rendered text.
    assert (result.experiment, result.scale, result.seed) == (name, "bench", 0)
    assert result.text == experiment.render(result.records)


def test_scalar_oracle_matches_fig14_golden(monkeypatch):
    """The scalar deque-BFS oracle carver reproduces the golden records —
    which the regeneration bench pins to the product's wavefront search.
    fig14 is the probe: it exercises renormalize through compile jobs
    (panel a) and through modular/non-modular FnJobs with the visited-sites
    proxy as a deterministic field (panel b), so any divergence in paths or
    accounting shows up byte-for-byte.  The serial runner keeps every job
    in this process, where the oracle is swapped in."""
    monkeypatch.setattr(renormalize_module, "_Carver", ScalarCarver)
    result = get_experiment("fig14").run("bench", 0, "serial")
    assert result.runner == "serial"
    assert_matches_golden("fig14", result.records)


@pytest.mark.parametrize("runner_kind", ["serial", "process"])
def test_rewrite_off_matches_golden_on_every_runner(runner_kind, monkeypatch):
    """The unrewritten oracle chain reproduces the golden records — which
    the regeneration bench pins to the default chain, rewrite included —
    on both backends: on the (simplified) golden workloads the contraction
    finds nothing.  The oracle is swapped in for ``default_passes``; the
    process pool is rebuilt around the swap so its forked workers inherit
    it, and retired afterwards so no later test gets those workers.  Every
    compile record's pass timings show the swap reached the job."""
    shutdown_pools()
    monkeypatch.setattr(pipeline_module, "default_passes", unrewritten_passes)
    try:
        runner = make_runner(runner_kind, max_workers=2)
        result = get_experiment("fig14").run("bench", 0, runner)
    finally:
        shutdown_pools()
    assert result.runner == runner_kind
    assert_matches_golden("fig14", result.records)
    compiled = [record for record in result.records if "translate" in record.timings]
    assert compiled
    assert not any("rewrite" in record.timings for record in compiled)


@pytest.mark.parametrize("runner_kind", ["serial", "process"])
def test_telemetry_session_leaves_golden_records_untouched(runner_kind):
    """Telemetry is out-of-band: running under an active ``obs.session()``
    — which turns on span collection in every pipeline (shipped to
    process-pool workers as the chunk's telemetry flag) and cache hit/miss
    events — must leave the canonical records byte-identical to the golden
    snapshot.  fig14 again: compile jobs and FnJobs, so both record shapes
    are covered, on the in-process serial path and the process-pool path."""
    runner = make_runner(runner_kind, max_workers=2)
    with obs.session() as tele:
        result = get_experiment("fig14").run("bench", 0, runner)
    assert result.runner == runner_kind
    assert_matches_golden("fig14", result.records)
    # The session actually observed the run — spans and counters exist —
    # so the byte-equality above is a real on-vs-off comparison.
    assert any(span["name"].startswith("run:") for span in tele.tracer.spans)
    assert any(span["name"] == "compile" for span in tele.tracer.spans)
