"""Declarative experiment API: registry, structured records, runner contract.

An :class:`Experiment` describes one table/figure of the paper's evaluation
declaratively: it *builds jobs* (units of work) and *reduces records*
(structured results) — it never executes anything itself.  Execution belongs
to a runner (:mod:`repro.experiments.runners`): compile jobs run through
``Pipeline.compile`` and function jobs call their function, so the same
job list runs serially or across a process pool with bit-identical
records.  Execution also *streams*:
:meth:`Experiment.iter_records` yields records in canonical order as jobs
finish, and :meth:`ExperimentResult.from_stream` folds a drained stream
into the same result a blocking run produces.

The contract that makes backends interchangeable is *self-seeding*: every
job derives its own random streams from ``(experiment seed, job labels)``
and never reads shared mutable state, so scheduling order cannot feed the
randomness.

Two job kinds exist:

* :class:`CompileJob` — one (benchmark circuit, :class:`PipelineSettings`)
  compilation, OnePerc or the OneQ baseline.  Runners share one pipeline
  per ``(settings, baseline)`` group across its jobs.
* :class:`FnJob` — an arbitrary *module-level* function (picklable for the
  process pool) returning a dict of record fields, optionally paired with a
  dict of wall-clock timings.

Every job produces one :class:`ExperimentRecord`: a flat dict of typed,
deterministic ``fields`` plus provenance (experiment, scale, seed, job key)
and non-deterministic wall-clock ``timings`` (per-pass seconds for compile
jobs).  ``record.canonical()`` drops the timings — that is the portion the
determinism suite asserts byte-identical across runners and worker counts.

Experiments register themselves in :data:`EXPERIMENT_REGISTRY` at import
time; the CLI, ``examples/reproduce_all.py``, and the benches all derive
their experiment lists from it.
"""

from __future__ import annotations

import csv
import io
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ReproError
from repro.experiments.common import SCALES, check_scale
from repro.pipeline.settings import PipelineSettings


class UnknownExperimentError(ReproError):
    """Lookup of an experiment name that is not in the registry."""


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Job:
    """One unit of experiment work.

    ``key`` must be unique within the experiment (it names the record);
    ``meta`` holds the sweep-axis values (panel, x, benchmark, ...) that are
    merged into the record's fields verbatim.
    """

    key: str
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, kw_only=True)
class CompileJob(Job):
    """Compile one benchmark circuit under one settings object.

    Runners group compile jobs by ``(settings, baseline)`` and compile
    every job of a group on that group's one shared pipeline (holding
    the runner's cache), in-line or in a process-pool worker.
    """

    family: str
    num_qubits: int
    settings: PipelineSettings
    seed: int = 0
    circuit_seed: int | None = None  # defaults to ``seed``
    baseline: bool = False

    @property
    def benchmark_seed(self) -> int:
        return self.seed if self.circuit_seed is None else self.circuit_seed


@dataclass(frozen=True, kw_only=True)
class FnJob(Job):
    """Run a module-level function; its return value becomes record fields.

    ``fn(**kwargs)`` returns either a ``fields`` dict or a ``(fields,
    timings)`` pair.  The function must be defined at module level (process
    runners pickle it by reference) and must derive any randomness from its
    own arguments — never from shared state.
    """

    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Records and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRecord:
    """One structured measurement: provenance + flat typed fields + timings.

    ``fields`` is deterministic for a given (experiment, scale, seed) no
    matter which runner produced it; ``timings`` carries wall-clock seconds
    (per-pass timers for compile jobs) and ``metrics`` carries execution
    provenance (``PassContext.metrics`` for compile jobs: logical layers
    mapped, peak memory, cache hit/miss counts, ...).  Both are excluded
    from :meth:`canonical`, which is what determinism tests compare —
    cache hit counts legitimately differ between cold and warm runs while
    the fields stay byte-identical.
    """

    experiment: str
    scale: str
    seed: int
    job: str
    fields: dict[str, Any]
    timings: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    #: The job's compilation for the consuming telemetry session to trace
    #: (:meth:`repro.obs.Telemetry.adopt_record`): its pass timings and
    #: its circuit's name and qubit count, riding the record across
    #: process boundaries.  Out-of-band: excluded from :meth:`canonical`,
    #: :meth:`payload` *and* :meth:`flat`, so golden records and exports
    #: are byte-identical with tracing on or off.
    pass_timings: tuple = ()
    circuit: str | None = None
    qubits: int | None = None

    def canonical(self) -> dict[str, Any]:
        """The deterministic portion, as a plain JSON-ready dict."""
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "job": self.job,
            "fields": dict(self.fields),
        }

    def payload(self) -> dict[str, Any]:
        """The full JSON-ready record: canonical part, timings, metrics.

        One JSONL stream line and one serve ``record`` frame each carry
        exactly this; ``repro.serve.protocol.record_from_payload`` is its
        inverse.
        """
        return {
            **self.canonical(),
            "timings": dict(self.timings),
            "metrics": dict(self.metrics),
        }

    def flat(self) -> dict[str, Any]:
        """One flat row (for CSV export): provenance, fields, ``t_`` timings,
        ``m_`` metrics."""
        row: dict[str, Any] = {
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "job": self.job,
        }
        row.update(self.fields)
        row.update({f"t_{name}": seconds for name, seconds in self.timings.items()})
        row.update({f"m_{name}": value for name, value in self.metrics.items()})
        return row


def group_cells(
    records: Sequence["ExperimentRecord"], key_fields: Sequence[str]
) -> list[tuple[dict[str, Any], list["ExperimentRecord"]]]:
    """Group records into table cells keyed by ``key_fields``.

    Returns, in first-appearance order, one ``(base_row, cell_records)``
    pair per distinct key — the shared first half of every "zip a cell's
    records into one comparison row" reducer (Tables 2 and 3).
    """
    cells: dict[tuple, tuple[dict[str, Any], list[ExperimentRecord]]] = {}
    for record in records:
        key = tuple(record.fields[name] for name in key_fields)
        if key not in cells:
            cells[key] = (dict(zip(key_fields, key)), [])
        cells[key][1].append(record)
    return list(cells.values())


def canonical_json(records: Sequence[ExperimentRecord]) -> str:
    """Byte-stable JSON of the deterministic record portions.

    Two runs whose records carry identical fields serialize to identical
    bytes — the determinism suite's equality predicate.
    """
    return json.dumps(
        [record.canonical() for record in records],
        sort_keys=True,
        separators=(",", ":"),
    )


@dataclass
class ExperimentResult:
    """Everything one experiment run produced: records plus rendered text."""

    experiment: str
    scale: str
    seed: int
    records: list[ExperimentRecord]
    text: str = ""
    runner: str = "serial"

    @classmethod
    def from_stream(
        cls,
        experiment: "Experiment",
        records: Iterable[ExperimentRecord],
        runner: "Runner | str" = "serial",
    ) -> "ExperimentResult":
        """Fold an already-consumed record stream into a full result.

        :meth:`Experiment.run` is this fold over
        :meth:`Experiment.iter_records`; a consumer that writes records
        wherever they need to go as they arrive hands the list it
        accumulated here to get the same rendered text and exports.
        """
        result = experiment.reduce(list(records))
        result.runner = runner if isinstance(runner, str) else runner.name
        return result

    def cache_stats(self) -> dict[str, Any]:
        """Aggregate artifact-cache counts from the records' metrics.

        Summing per-record counts (rather than reading a cache object)
        keeps the accounting correct across process pools, where the
        parent's cache instance never sees the workers' lookups.
        """
        from repro.pipeline.cache import cache_summary

        return cache_summary(
            sum(int(r.metrics.get("cache_hits", 0)) for r in self.records),
            sum(int(r.metrics.get("cache_misses", 0)) for r in self.records),
        )

    def to_json_obj(self) -> dict[str, Any]:
        """Machine-readable form (fields, timings, metrics) for ``--json``."""
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": self.seed,
            "runner": self.runner,
            "cache": self.cache_stats(),
            "records": [
                {
                    "job": record.job,
                    "fields": dict(record.fields),
                    "timings": dict(record.timings),
                    "metrics": dict(record.metrics),
                }
                for record in self.records
            ],
        }

    def to_csv(self) -> str:
        """Flat CSV: provenance columns, then field columns, then timings."""
        rows = [record.flat() for record in self.records]
        lead = ["experiment", "scale", "seed", "job"]
        data_keys: list[str] = []
        for row in rows:
            for key in row:
                if key not in lead and key not in data_keys:
                    data_keys.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=lead + data_keys, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buffer.getvalue()


# ---------------------------------------------------------------------------
# The Experiment abstraction
# ---------------------------------------------------------------------------


class Experiment(ABC):
    """One table/figure: a declarative job builder plus a record reducer.

    Subclasses set ``name``/``description``, build self-seeded jobs in
    :meth:`build_jobs`, and render text from records in :meth:`render`.
    ``run`` wires a runner (default serial) through the two halves.
    """

    name: str = ""
    description: str = ""
    scales: tuple[str, ...] = SCALES

    @abstractmethod
    def build_jobs(self, scale: str, seed: int) -> list[Job]:
        """The full job list for ``scale``; every job self-seeded from ``seed``."""

    @abstractmethod
    def render(self, records: Sequence[ExperimentRecord]) -> str:
        """The human-readable table(s), reconstructed from the records."""

    def reduce(self, records: Sequence[ExperimentRecord]) -> ExperimentResult:
        """Fold executed records into the experiment's result."""
        if not records:
            raise ReproError(f"experiment {self.name!r} produced no records")
        first = records[0]
        return ExperimentResult(
            experiment=self.name,
            scale=first.scale,
            seed=first.seed,
            records=list(records),
            text=self.render(records),
        )

    def _check_scale(self, scale: str) -> None:
        check_scale(scale)
        if scale not in self.scales:
            raise ReproError(
                f"experiment {self.name!r} supports scales {self.scales}, "
                f"got {scale!r}"
            )

    def run(
        self,
        scale: str = "bench",
        seed: int = 0,
        runner: "Runner | str | None" = None,
    ) -> ExperimentResult:
        """Drain :meth:`iter_records` on ``runner`` and reduce the records."""
        runner = _resolve_runner(runner)
        return ExperimentResult.from_stream(
            self, self.iter_records(scale, seed=seed, runner=runner), runner
        )

    def iter_records(
        self,
        scale: str = "bench",
        seed: int = 0,
        runner: "Runner | str | None" = None,
    ) -> Iterator[ExperimentRecord]:
        """Stream records in canonical job order as execution completes.

        What :meth:`run` folds: a long sweep yields each record the moment
        its job (or, on the process runner, its chunk) finishes instead of
        materializing the whole list first, so a service or an incremental
        writer can observe partial results mid-sweep.  Finish the stream
        with :meth:`ExperimentResult.from_stream` to get ``run``'s result.
        Scale/runner validation happens here, eagerly, not at first
        ``next()`` — a usage error must surface at the call site.
        """
        self._check_scale(scale)
        runner = _resolve_runner(runner)
        jobs = self.build_jobs(scale, seed)
        return runner.iter_jobs(jobs, experiment=self.name, scale=scale, seed=seed)


def _resolve_runner(runner: "Runner | str | None"):
    from repro.experiments.runners import Runner, make_runner

    if runner is None:
        return make_runner("serial")
    if isinstance(runner, str):
        return make_runner(runner)
    if isinstance(runner, Runner):
        return runner
    raise ReproError(f"not a runner: {runner!r}")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Experiment name -> instance, in registration (== presentation) order.
EXPERIMENT_REGISTRY: dict[str, Experiment] = {}


def register(experiment_cls: type[Experiment]) -> type[Experiment]:
    """Class decorator: instantiate and add to the registry exactly once."""
    experiment = experiment_cls()
    if not experiment.name:
        raise ReproError(f"{experiment_cls.__name__} has no name")
    if experiment.name in EXPERIMENT_REGISTRY:
        raise ReproError(f"experiment {experiment.name!r} registered twice")
    EXPERIMENT_REGISTRY[experiment.name] = experiment
    return experiment_cls


def _ensure_registered() -> None:
    # Importing the package pulls in every experiment module, each of which
    # registers itself; after that the registry is complete.
    import repro.experiments  # noqa: F401


def experiment_names() -> list[str]:
    """Registered names, in presentation order (Table 2 ... photon loss)."""
    _ensure_registered()
    return list(EXPERIMENT_REGISTRY)


def get_experiment(name: str) -> Experiment:
    """Registry lookup with an error that lists what *is* registered."""
    _ensure_registered()
    try:
        return EXPERIMENT_REGISTRY[name]
    except KeyError:
        known = ", ".join(EXPERIMENT_REGISTRY) or "<none>"
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; registered experiments: {known}"
        ) from None


def run_experiment(
    name: str,
    scale: str = "bench",
    seed: int = 0,
    runner: "Runner | str | None" = None,
) -> ExperimentResult:
    """One-call entry point: ``run_experiment("fig14", "bench")``."""
    return get_experiment(name).run(scale=scale, seed=seed, runner=runner)
