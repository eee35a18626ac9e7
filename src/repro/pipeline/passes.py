"""The concrete passes of the Fig. 2 flow, as composable pipeline stages.

Each pass reads and writes named artifacts on the shared
:class:`~repro.pipeline.context.PassContext`; the ``requires``/``provides``
tuples are the machine-checked contract the pipeline validates before the
pass runs, which turns mis-ordered stages into immediate, explicit errors
instead of attribute crashes deep inside a stage.
"""

from __future__ import annotations

from repro.errors import CompilationError
from repro.pipeline.context import PassContext


class CompilerPass:
    """Base class: a named transformation of the pass context.

    Subclasses set ``name`` (used for timing entries and diagnostics),
    ``requires`` (artifact keys that must exist before the pass runs) and
    ``provides`` (keys the pass is expected to create), and implement
    :meth:`run`.  The pipeline loads every ``requires`` artifact before
    its timer starts, so the pass timing measures the pass's own work.

    Three further attributes describe a pass to the artifact cache
    (:mod:`repro.pipeline.cache`): ``cacheable`` declares that the pass's
    artifacts are a pure function of its cache key, so a pipeline with a
    cache looks the pass up and runs it only on a miss; ``reads`` names what
    the pass reads besides its ``requires`` artifacts — context fields
    (``circuit``, ``config``, ``virtual_size``) or
    :class:`~repro.pipeline.settings.PipelineSettings` field names — which
    the key hashes together with the keys of those artifacts; and
    ``rng_labels`` names the child random streams the pass consumes (empty
    for deterministic passes) — the cache folds the derived stream seed
    into the key so stochastic stages memoize per (inputs, seed) while
    deterministic ones share entries across the whole seed axis.
    """

    name: str = "pass"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    cacheable: bool = False
    reads: tuple[str, ...] = ()
    rng_labels: tuple[str, ...] = ()

    def run(self, ctx: PassContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class TranslatePass(CompilerPass):
    """Circuit -> {J, CZ} -> measurement pattern (Section 3)."""

    name = "translate"
    provides = ("pattern",)
    cacheable = True
    reads = ("circuit",)

    def run(self, ctx: PassContext) -> None:
        from repro.mbqc.translate import translate_circuit

        ctx.put("pattern", translate_circuit(ctx.circuit))


class OfflineMapPass(CompilerPass):
    """Measurement pattern -> FlexLattice IR mapping (Section 6.2)."""

    name = "offline-map"
    requires = ("pattern",)
    provides = ("mapping",)
    cacheable = True
    reads = (
        "virtual_size",
        "refresh_every",
        "memory_budget_bytes",
        "bytes_per_node_layer",
    )

    def run(self, ctx: PassContext) -> None:
        from repro.offline.mapper import OfflineMapper

        settings = ctx.settings
        mapping = OfflineMapper(
            width=ctx.virtual_size,
            refresh_every=settings.refresh_every,
            memory_budget_bytes=settings.memory_budget_bytes,
            bytes_per_node_layer=settings.bytes_per_node_layer,
        ).map_pattern(ctx.require("pattern"))
        ctx.put("mapping", mapping)
        ctx.metrics["logical_layers_mapped"] = mapping.layer_count
        ctx.metrics["peak_memory_bytes"] = mapping.peak_memory_bytes


class OnlineReshapePass(CompilerPass):
    """Streamed RSLs -> logical layers via percolation reshaping (Section 5)."""

    name = "online-reshape"
    requires = ("mapping",)
    provides = ("reshape",)
    cacheable = True
    reads = ("config", "virtual_size", "max_rsl")
    rng_labels = ("online",)

    def run(self, ctx: PassContext) -> None:
        from repro.online.timelike import OnlineReshaper

        reshaper = OnlineReshaper(
            ctx.config,
            virtual_size=ctx.virtual_size,
            rng=ctx.rng("online"),
            max_rsl=ctx.settings.max_rsl,
        )
        reshape = reshaper.run(ctx.require("mapping").demands)
        ctx.put("reshape", reshape)
        ctx.metrics["rsl_count"] = reshape.rsl_consumed
        ctx.metrics["fusion_count"] = reshape.fusions


class BaselinePass(CompilerPass):
    """OneQ + repeat-until-success on the same hardware (Section 7.1)."""

    name = "baseline"
    requires = ("pattern",)
    provides = ("baseline",)
    cacheable = True
    reads = ("config", "max_rsl")
    rng_labels = ("baseline",)

    def run(self, ctx: PassContext) -> None:
        from repro.baseline.oneq import plan_oneq
        from repro.baseline.retry import RepeatUntilSuccessExecutor

        try:
            plan = plan_oneq(ctx.require("pattern"), ctx.config)
        except Exception as exc:  # noqa: BLE001 - surfaced as compilation failure
            raise CompilationError(
                f"OneQ could not embed {ctx.circuit.name}: {exc}"
            ) from exc
        executor = RepeatUntilSuccessExecutor(
            ctx.config.effective_fusion_rate,
            rsl_cap=ctx.settings.max_rsl,
            rng=ctx.rng("baseline"),
        )
        ctx.put("baseline", executor.run(plan))
