"""Experiment runners: serial and process-pool.

A runner executes a job list and produces input-ordered
:class:`~repro.experiments.api.ExperimentRecord` lists.  Both backends
produce byte-identical canonical records for any worker count because jobs
are self-seeded (see :mod:`repro.experiments.api`); the backend choice only
moves wall-clock time around.

Execution is **streaming end-to-end**: the primitive is
:meth:`Runner.iter_jobs`, a generator that yields each record as its job
finishes, with canonical (input) ordering restored by a reorder buffer —
out-of-order completions wait in the buffer until every earlier record has
been yielded.  Both backends stream; a caller that wants the whole list
takes ``list(iter_jobs(...))``.

Every job runs through one execution core, :func:`_execute_job`: compile
jobs call ``Pipeline.compile`` on their ``(settings, baseline)`` group's
shared pipeline (the OnePerc chain, or ``baseline_passes()`` for a
baseline group), fn jobs call their module-level function.  The process
runner draws its executor from the **warm pool registry**
(:mod:`repro.experiments.pool`): one process pool per worker count,
created on first use and reused across ``iter_jobs`` calls and whole
sweeps, so pool startup is paid once per process, not once per run.  Jobs
are submitted in **chunks** sized to amortize IPC
(:func:`~repro.experiments.pool.chunk_size_for`): each chunk executes
in-worker and returns finished *records*, so the heavy compile artifacts
(mapping, reshape) never travel back through the pool pipe — with a
:class:`~repro.pipeline.cache.DiskCache` attached they are already in the
shared store, which is the exchange medium.

One caveat follows from "only the wall clock differs": records' ``timings``
are measured while jobs *contend* for cores, so the timing columns of the
timing experiments (Figs. 14-15) are only meaningful from the serial
runner — the default everywhere.  The process runner still produces
bit-identical deterministic fields; it just cannot be used to *measure*
single-job wall clock.
"""

from __future__ import annotations

import time
from concurrent.futures import as_completed
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro import obs
from repro.circuits.benchmarks import make_benchmark
from repro.errors import ReproError
from repro.experiments.api import CompileJob, ExperimentRecord, FnJob, Job
from repro.experiments.pool import (
    chunk_size_for,
    chunked,
    discard_pool,
    get_pool,
    resolve_workers,
)
from repro.pipeline import Pipeline, baseline_passes


def _call_fn_job(job: FnJob) -> Any:
    # Module-level so the process pool can pickle it by reference.
    return job.fn(**job.kwargs)


def _named(job: Job, experiment: str, compute):
    """Run ``compute``, naming the failing job: a sweep error must say which
    sweep point died (circuit names alone repeat across settings groups)."""
    try:
        return compute()
    except Exception as exc:
        raise ReproError(f"{experiment} job {job.key!r}: {exc}") from exc


def _split_output(out: Any) -> tuple[dict[str, Any], dict[str, float]]:
    """Normalize an FnJob return value into (fields, timings)."""
    if isinstance(out, tuple):
        fields, timings = out
        return dict(fields), dict(timings)
    return dict(out), {}


def _group_pipelines(jobs: Sequence[Job], cache) -> dict[tuple, Pipeline]:
    """One pipeline over ``cache`` per ``(settings, baseline)`` group."""
    pipelines: dict[tuple, Pipeline] = {}
    for job in jobs:
        if isinstance(job, CompileJob):
            group = (job.settings, job.baseline)
            if group not in pipelines:
                pipelines[group] = Pipeline(
                    job.settings,
                    passes=baseline_passes() if job.baseline else None,
                    cache=cache,
                )
    return pipelines


def _execute_job(
    job: Job,
    pipelines: dict[tuple, Pipeline],
    *,
    experiment: str,
    scale: str,
    seed: int,
) -> ExperimentRecord:
    """Run one job to a finished record — the one execution core.

    Shared verbatim by the serial loop and the chunk worker, so in-line
    and process-hosted execution cannot drift: compile jobs run against
    their group's shared pipeline, fn jobs call their module-level
    function, and failures name the job either way.
    """
    if isinstance(job, CompileJob):
        pipeline = pipelines[(job.settings, job.baseline)]
        circuit = make_benchmark(job.family, job.num_qubits, seed=job.benchmark_seed)
        outcome = _named(job, experiment, lambda: pipeline.compile(circuit, job.seed))
        return _compile_record(
            job, circuit, outcome, experiment=experiment, scale=scale, seed=seed
        )
    out = _named(job, experiment, lambda: _call_fn_job(job))
    return _fn_record(job, out, experiment=experiment, scale=scale, seed=seed)


@dataclass(frozen=True)
class ChunkTask:
    """One pool dispatch quantum: a contiguous slice of a sweep's jobs.

    A chunk carries no live resources — indexed self-seeded jobs,
    provenance, and the cache handle (pickled, which for a
    :class:`~repro.pipeline.cache.DiskCache` means *by path*, so workers
    read and feed the one shared store).  It says nothing about
    telemetry: every record carries its pass timings home, and the
    parent's session builds spans from them if it keeps any.  One chunk
    costs one pickle round trip however many jobs it holds.
    """

    experiment: str
    scale: str
    seed: int
    jobs: tuple[tuple[int, Job], ...]  # (canonical index, job) pairs
    cache: Any = None


def run_chunk(task: ChunkTask) -> list[tuple[int, ExperimentRecord]]:
    """Execute one chunk in-worker; return slim, record-shaped results.

    Module-level so process pools pickle it by reference.  Records are
    built *worker-side*: only the record's scalars, timings, metrics, and
    pass timings travel back through the pool pipe, never the heavy compile
    artifacts behind them (with a ``DiskCache`` attached those are
    already in the shared store — the cache directory is the exchange
    medium, so shipping the blobs again would pay for them twice).
    """
    jobs = [job for _index, job in task.jobs]
    pipelines = _group_pipelines(jobs, task.cache)
    return [
        (
            index,
            _execute_job(
                job,
                pipelines,
                experiment=task.experiment,
                scale=task.scale,
                seed=task.seed,
            ),
        )
        for index, job in task.jobs
    ]


def _fail_fast(pool, futures, exc: BaseException) -> None:
    """The pool error path: cancel queued work; retire a poisoned pool.

    Without this, a failing job surfaced only after every other queued
    job ran to completion (the executor kept draining).  Cancelling makes
    the failure immediate; on a real error the shared pool is also
    retired via :func:`~repro.experiments.pool.discard_pool` (shutdown
    with ``cancel_futures=True``), because a pool mid-way through a
    cancelled sweep must not serve the next caller.  An abandoned
    consumer (``GeneratorExit``) only cancels — the pool itself is
    healthy and stays warm.
    """
    for future in futures:
        future.cancel()
    if not isinstance(exc, GeneratorExit):
        discard_pool(pool)


class _ReorderBuffer:
    """Restores canonical order over out-of-order completions.

    The one definition of the streaming contract's ordering half: ``push``
    completed records under their canonical index, ``drain`` yields the
    contiguous prefix that is now safe to emit.
    """

    def __init__(self) -> None:
        self._records: dict[int, ExperimentRecord] = {}
        self._next_index = 0

    def __len__(self) -> int:
        """Records waiting on an earlier index (the buffer's depth)."""
        return len(self._records)

    def push(self, index: int, record: ExperimentRecord) -> None:
        self._records[index] = record

    def drain(self) -> Iterator[ExperimentRecord]:
        while self._next_index in self._records:
            yield self._records.pop(self._next_index)
            self._next_index += 1


class Runner:
    """Serial execution: the reference backend the process runner must match.

    ``cache`` (an :class:`~repro.pipeline.cache.ArtifactCache`) is shared
    by every compile job of every ``iter_jobs`` call on this runner: each
    compile group's pipeline holds it before dispatch, so one cache
    serves the whole experiment run regardless of backend.
    Records are byte-identical with the cache off, cold, or warm — hit/miss
    counts land in the records' non-canonical ``metrics``.  (A
    ``MemoryCache`` shares within the serial runner only; the process
    runner needs a ``DiskCache`` to share entries across workers.)
    """

    name = "serial"

    def __init__(self, max_workers: int | None = None, cache=None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ReproError(f"worker count must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.cache = cache

    # -- the runner contract ------------------------------------------------

    def iter_jobs(
        self,
        jobs: Sequence[Job],
        *,
        experiment: str,
        scale: str,
        seed: int,
    ) -> Iterator[ExperimentRecord]:
        """Yield one record per job, in canonical (input) order, as jobs
        finish.

        Pool backends complete jobs out of order; a reorder buffer holds
        early completions until every lower-index record has been yielded,
        so consumers always observe the records in job order — just
        incrementally.  The serial backend executes in input order and
        yields immediately.

        With a telemetry session active, the stream is additionally
        observed out-of-band: a ``run:<experiment>`` span brackets the
        whole call, ``run_started``/``run_finished`` events mark its
        lifecycle, and every record's pass timings (as its
        ``compile``/``pass:`` spans) and cache provenance are adopted into
        the session as the record passes through.  A counters-only session
        (``spans=False``) gets the events and the cache counts, and no
        span.  Records themselves are byte-identical either way.
        """
        jobs = list(jobs)
        tele = obs.active()
        if tele is None:
            yield from self._iter_jobs(
                jobs, experiment=experiment, scale=scale, seed=seed
            )
            return
        tele.events.emit(
            "run_started",
            experiment=experiment,
            scale=scale,
            seed=seed,
            runner=self.name,
            jobs=len(jobs),
        )
        t0 = time.time()
        wall0 = time.perf_counter()
        yielded = 0
        try:
            for record in self._iter_jobs(
                jobs, experiment=experiment, scale=scale, seed=seed
            ):
                tele.adopt_record(record)
                yielded += 1
                yield record
        finally:
            if tele.spans:
                tele.tracer.add_span(
                    f"run:{experiment}",
                    ts=t0,
                    dur=time.perf_counter() - wall0,
                    attrs={"runner": self.name, "jobs": yielded},
                )
            tele.events.emit(
                "run_finished", experiment=experiment, runner=self.name, jobs=yielded
            )

    def _iter_jobs(
        self,
        jobs: list[Job],
        *,
        experiment: str,
        scale: str,
        seed: int,
    ) -> Iterator[ExperimentRecord]:
        """The untraced execution core ``iter_jobs`` wraps.

        In-line execution is already in canonical order; the execution
        core is the same one the process runner's chunk workers run.
        """
        self._check_jobs(jobs)
        pipelines = _group_pipelines(jobs, self.cache)
        for job in jobs:
            obs.event("job_started", job=job.key, experiment=experiment)
            yield _execute_job(
                job, pipelines, experiment=experiment, scale=scale, seed=seed
            )

    @staticmethod
    def _check_jobs(jobs: Sequence[Job]) -> None:
        """Reject unknown job kinds before any execution machinery spins up."""
        for job in jobs:
            if not isinstance(job, (CompileJob, FnJob)):
                raise ReproError(f"runner cannot execute job of type {type(job)!r}")


class SerialRunner(Runner):
    """Alias of the base runner; the canonical reference backend."""


class ProcessRunner(Runner):
    """Chunked dispatch over the warm process pool for ``max_workers``."""

    name = "process"

    def _iter_jobs(
        self,
        jobs: list[Job],
        *,
        experiment: str,
        scale: str,
        seed: int,
    ) -> Iterator[ExperimentRecord]:
        # Every chunk is in flight before anything yields, so the pool
        # stays saturated; each chunk comes back as finished records (one
        # pickle round trip per chunk, no artifact blobs on the return path).
        self._check_jobs(jobs)
        pool = get_pool(self.max_workers)
        size = chunk_size_for(len(jobs), resolve_workers(self.max_workers))
        futures = {
            pool.submit(
                run_chunk,
                ChunkTask(
                    experiment=experiment,
                    scale=scale,
                    seed=seed,
                    jobs=tuple(chunk),
                    cache=self.cache,
                ),
            ): chunk
            for chunk in chunked(list(enumerate(jobs)), size)
        }
        for job in jobs:
            obs.event("job_started", job=job.key, experiment=experiment)
        obs.gauge("runner.chunk_size", size)
        buffer = _ReorderBuffer()
        in_flight = len(jobs)
        obs.gauge("runner.jobs_in_flight", in_flight)
        try:
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    pairs = future.result()
                except ReproError:
                    raise  # worker-side _named already names the failing job
                except Exception as exc:
                    keys = ", ".join(job.key for _index, job in chunk)
                    raise ReproError(
                        f"{experiment} chunk [{keys}]: {exc}"
                    ) from exc
                in_flight -= len(pairs)
                obs.gauge("runner.jobs_in_flight", in_flight)
                if getattr(self.cache, "max_bytes", None) is not None:
                    # A worker's copy of the store estimates only its own
                    # writes, so the shared budget is enforced here.
                    self.cache._evict_to_budget()
                for index, record in pairs:
                    buffer.push(index, record)
                obs.observe("runner.reorder_depth", len(buffer))
                yield from buffer.drain()
        except BaseException as exc:
            # Fail fast: a poisoned sweep must not wait for — or leave
            # behind — the rest of its queued chunks.
            _fail_fast(pool, futures, exc)
            raise


def _compile_record(
    job: CompileJob,
    circuit,
    outcome,
    *,
    experiment: str,
    scale: str,
    seed: int,
) -> ExperimentRecord:
    """A uniform record from one compile outcome (OnePerc or baseline)."""
    # PassContext.metrics provenance: logical layers mapped, peak memory,
    # cache hit/miss counts.  Rides the outcome across pickle boundaries,
    # so process-pool runs account correctly too.
    metrics = dict(outcome.metrics)
    if outcome.pass_timings:
        # The CPU half of the wall/CPU split: summed pass wall seconds from
        # pool runners include contention, and this is what quantifies it.
        metrics["cpu_seconds_total"] = sum(
            timing.cpu_seconds for timing in outcome.pass_timings
        )
    return ExperimentRecord(
        experiment=experiment,
        scale=scale,
        seed=seed,
        job=job.key,
        fields={**job.meta, **outcome.fields()},
        timings=dict(outcome.timings_by_pass),
        metrics=metrics,
        pass_timings=tuple(outcome.pass_timings),
        circuit=circuit.name,
        qubits=circuit.num_qubits,
    )


def _fn_record(
    job: FnJob,
    out: Any,
    *,
    experiment: str,
    scale: str,
    seed: int,
) -> ExperimentRecord:
    """A record from one fn-job return value (fields, optional timings)."""
    # _named also covers normalization: a malformed fn return value must
    # name its job, not just die unpacking.
    fields, timings = _named(job, experiment, lambda: _split_output(out))
    return ExperimentRecord(
        experiment=experiment,
        scale=scale,
        seed=seed,
        job=job.key,
        fields={**job.meta, **fields},
        timings=timings,
    )


#: Runner name -> class, the CLI's ``--runner`` choices.
RUNNERS: dict[str, type[Runner]] = {
    "serial": SerialRunner,
    "process": ProcessRunner,
}


def make_runner(name: str, max_workers: int | None = None, cache=None) -> Runner:
    """Instantiate a runner by name, with an error that lists the options.

    Validation happens here so the CLI surfaces usage errors before any
    pool spins up: ``max_workers`` must be >= 1 when given
    (``max_workers=0`` used to silently mean "all cores").
    """
    try:
        runner_cls = RUNNERS[name]
    except KeyError:
        raise ReproError(
            f"unknown runner {name!r}; available runners: {', '.join(RUNNERS)}"
        ) from None
    return runner_cls(max_workers=max_workers, cache=cache)
