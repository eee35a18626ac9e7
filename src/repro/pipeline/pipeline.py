"""The pass pipeline: ordered stages over a shared context.

``Pipeline`` is the composition point of the compiler: a
:class:`~repro.pipeline.settings.PipelineSettings` (the knobs), an ordered
pass list (the stages), and the machinery that stamps out one
:class:`~repro.pipeline.context.PassContext` per compilation, validates each
pass's artifact contract, and times every stage.  Each compilation derives
its own RNG streams from its seed and circuit name, so sweeps (see
:mod:`repro.experiments.runners`) may run compilations in any order or
process without changing a result.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

from repro import obs
from repro.baseline.retry import BaselineResult
from repro.circuits.circuit import Circuit
from repro.errors import CompilationError
from repro.pipeline.context import PassContext, PassTiming
from repro.pipeline.passes import (
    BaselinePass,
    CompilerPass,
    OfflineMapPass,
    OnlineReshapePass,
    TranslatePass,
)
from repro.pipeline.result import CompilationResult
from repro.pipeline.settings import PipelineSettings


def default_passes() -> tuple[CompilerPass, ...]:
    """The paper's Fig. 2 flow as a pass chain, with the pattern-rewrite
    optimization (zero-angle pair contraction) between translate and
    offline-map."""
    # Lazy import: repro.passes is built on top of this module.
    from repro.passes.rewrite import RewritePass

    return (
        TranslatePass(),
        RewritePass(),
        OfflineMapPass(),
        OnlineReshapePass(),
    )


def baseline_passes() -> tuple[CompilerPass, ...]:
    """The OneQ repeat-until-success comparison flow."""
    return (TranslatePass(), BaselinePass())


class PassInsertionError(CompilationError):
    """A pass cannot join a chain at the requested slot.

    Structured for tooling: ``kind`` is ``"collision"`` (the new pass
    provides an artifact another pass already provides, without requiring
    it — i.e. it is not an in-place refinement), ``"unsatisfied"`` (a
    required artifact has no earlier provider), or ``"anchor"`` (the
    insertion point itself is invalid).  ``new_pass``/``existing_pass``
    name both sides of the conflict and ``key`` the artifact at issue.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str,
        new_pass: str,
        existing_pass: str | None = None,
        key: str | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.new_pass = new_pass
        self.existing_pass = existing_pass
        self.key = key


def check_chain(passes: Sequence[CompilerPass]) -> None:
    """Statically validate a pass chain's requires/provides contract.

    The per-run checks in :meth:`Pipeline.run` catch violations only when
    the offending pass executes; this walks the declared contract up front
    so a bad insertion fails at :meth:`Pipeline.insert_pass` time, naming
    both passes involved.  Two rules:

    * every ``requires`` key must have a provider strictly earlier in the
      chain;
    * a ``provides`` key already provided earlier is a collision *unless*
      the later pass also requires it — the in-place-refinement shape
      (e.g. rewrite: ``pattern -> pattern``).
    """
    chain = list(passes)
    available: dict[str, str] = {}
    for index, stage in enumerate(chain):
        for key in stage.requires:
            if key not in available:
                provider = next(
                    (
                        later.name
                        for later in chain[index + 1 :]
                        if key in later.provides
                    ),
                    None,
                )
                if provider is not None:
                    message = (
                        f"pass {stage.name!r} requires {key!r}, which is "
                        f"only provided later by pass {provider!r}"
                    )
                else:
                    message = (
                        f"pass {stage.name!r} requires {key!r}, which no "
                        "pass in the chain provides"
                    )
                raise PassInsertionError(
                    message,
                    kind="unsatisfied",
                    new_pass=stage.name,
                    existing_pass=provider,
                    key=key,
                )
        for key in stage.provides:
            owner = available.get(key)
            if owner is not None and key not in stage.requires:
                raise PassInsertionError(
                    f"pass {stage.name!r} provides {key!r}, which pass "
                    f"{owner!r} already provides; an in-place refinement "
                    f"must also require {key!r}",
                    kind="collision",
                    new_pass=stage.name,
                    existing_pass=owner,
                    key=key,
                )
            available[key] = stage.name


class Pipeline:
    """A compiler: settings + an ordered pass chain.

    The default chain reproduces the end-to-end OnePerc compiler;
    ``baseline_passes()`` is the OneQ comparison compiler; custom chains
    ablate or extend either (e.g. the memory experiments run only
    ``TranslatePass -> OfflineMapPass``).
    """

    def __init__(
        self,
        settings: PipelineSettings | None = None,
        passes: Sequence[CompilerPass] | None = None,
        seed: int | None = None,
        cache=None,
    ) -> None:
        self.settings = settings or PipelineSettings()
        self.passes: tuple[CompilerPass, ...] = (
            tuple(passes) if passes is not None else default_passes()
        )
        self.cache = cache
        self.seed = seed

    # -- core execution -----------------------------------------------------

    def run(self, ctx: PassContext) -> PassContext:
        """Run every pass over ``ctx``, enforcing contracts and timing each.

        With a cache, each cacheable stage is looked up first: a hit
        replays the stored artifacts and metrics in place of the run
        (:meth:`~repro.pipeline.cache.ArtifactCache.replay`), a miss runs
        the stage and stores what it made
        (:meth:`~repro.pipeline.cache.ArtifactCache.run_and_store`), and a
        stage with an unkeyed input runs uncached (a ``cache_bypass``
        event).  The lookup, and the loading of a running stage's deferred
        inputs, happen before the stage's timer starts, so pass timings
        never include unpickling cached artifacts.  ``ctx.timings`` is the
        compilation's one per-pass record: a telemetry session builds its
        ``compile``/``pass:`` spans from it when it adopts the outcome
        (:mod:`repro.obs`), so tracing adds no work here.  Each stage's
        timing is also handed to ``ctx.on_pass``, when set.
        """
        cache = self.cache
        for stage in self.passes:
            key, payload = self._prepare(stage, ctx)
            start = time.time()
            cpu0 = time.thread_time()
            wall0 = time.perf_counter()
            if payload is not None:
                cache.replay(stage, ctx, key, payload)
            elif key is not None:
                cache.run_and_store(stage, ctx, key)
            else:
                stage.run(ctx)
            timing = PassTiming(
                stage.name,
                time.perf_counter() - wall0,
                time.thread_time() - cpu0,
                start,
            )
            ctx.timings.append(timing)
            self._check_provides(stage, ctx)
            if key is not None:
                for name in stage.provides:
                    ctx.artifact_keys[name] = key
            if ctx.on_pass is not None:
                ctx.on_pass(timing)
        return ctx

    def _prepare(self, stage: CompilerPass, ctx: PassContext):
        """A stage's untimed set-up: contract check, lookup, loading, unkeying.

        Returns the stage's cache key (``None``: not looked up) and the
        fetched payload (``None``: the stage runs, so its deferred inputs
        are loaded here).  The stage's outputs lose their keys once the
        lookup has read them (an in-place refinement keys its output on
        its input's key), so an artifact rewritten by a pass that is not
        looked up is unkeyed, and every cacheable pass downstream of it
        runs uncached.
        """
        missing = [key for key in stage.requires if key not in ctx.artifacts]
        if missing:
            raise CompilationError(
                f"pass {stage.name!r} requires artifacts {missing} that no "
                f"earlier pass provided (present: {sorted(ctx.artifacts)})"
            )
        key = payload = None
        if self.cache is not None and stage.cacheable:
            key = self.cache.key_for(stage, ctx)
            if key is None:
                obs.event("cache_bypass", stage=stage.name, circuit=ctx.circuit.name)
            else:
                payload = self.cache.fetch(key)
        if payload is None:
            for name in stage.requires:
                ctx.require(name)
        keys = ctx.artifact_keys
        if keys:
            for name in stage.provides:
                keys.pop(name, None)
        return key, payload

    @staticmethod
    def _check_provides(stage: CompilerPass, ctx: PassContext) -> None:
        for key in stage.provides:
            if key not in ctx.artifacts:
                raise CompilationError(
                    f"pass {stage.name!r} promised artifact {key!r} but "
                    "did not produce it"
                )

    def run_circuit(
        self,
        circuit: Circuit,
        seed: int | None = None,
        on_pass: Callable[[PassTiming], None] | None = None,
    ) -> PassContext:
        """Build a fresh context for ``circuit`` and run the chain over it."""
        ctx = self.settings.context_for(circuit, self.seed if seed is None else seed)
        ctx.on_pass = on_pass
        return self.run(ctx)

    def with_cache(self, cache) -> "Pipeline":
        """This pipeline's chain over ``cache`` (``None``: uncached).

        The returned pipeline shares ``cache``, so every compilation it (or a
        sibling) runs reads and feeds the same artifact store.
        """
        return Pipeline(self.settings, self.passes, self.seed, cache)

    def insert_pass(
        self,
        stage: CompilerPass,
        *,
        after: str | None = None,
        before: str | None = None,
    ) -> "Pipeline":
        """A new pipeline with ``stage`` inserted into the chain.

        ``after``/``before`` name an existing pass as the anchor (exactly
        one may be given; with neither, the stage is appended).  The
        resulting chain is validated by :func:`check_chain` *at insertion
        time*, so an unsatisfied requirement or a provides collision
        raises a structured :class:`PassInsertionError` naming both passes
        instead of failing mid-compilation.  The new pipeline shares this
        one's cache, which looks up an inserted cacheable pass like any
        other.
        """
        if after is not None and before is not None:
            raise PassInsertionError(
                f"inserting {stage.name!r}: give either after= or before=, "
                "not both",
                kind="anchor",
                new_pass=stage.name,
            )
        chain = list(self.passes)
        names = [existing.name for existing in chain]
        if after is None and before is None:
            index = len(chain)
        else:
            anchor = after if after is not None else before
            if anchor not in names:
                raise PassInsertionError(
                    f"inserting {stage.name!r}: no pass named {anchor!r} "
                    f"in the chain ({', '.join(names)})",
                    kind="anchor",
                    new_pass=stage.name,
                    existing_pass=anchor,
                )
            index = names.index(anchor) + (1 if after is not None else 0)
        chain.insert(index, stage)
        check_chain(chain)
        return Pipeline(self.settings, chain, self.seed, self.cache)

    # -- the one-shot entry point -----------------------------------------

    def compile(
        self,
        circuit: Circuit,
        seed: int | None = None,
        on_pass: Callable[[PassTiming], None] | None = None,
    ) -> CompilationResult | BaselineResult:
        """Run this pipeline's chain over ``circuit``; return its outcome.

        A chain that provides ``baseline`` (``baseline_passes()``, plus
        any inserted passes) yields the OneQ :class:`BaselineResult` of
        Section 7.1; any other chain yields the OnePerc
        :class:`CompilationResult` of the paper's Fig. 2.  ``on_pass``, if
        given, is called with each stage's :class:`PassTiming` as the
        stage finishes (the serve layer's ``pass`` frames).
        """
        ctx = self.run_circuit(circuit, seed, on_pass)
        if "baseline" in ctx.artifacts:
            result = ctx.require("baseline")
            result.pass_timings = list(ctx.timings)
            result.metrics = dict(ctx.metrics)
            return result
        reshape = ctx.require("reshape")
        return CompilationResult(
            circuit_name=circuit.name,
            num_qubits=circuit.num_qubits,
            rsl_count=reshape.rsl_consumed,
            fusion_count=reshape.fusions,
            logical_layers=reshape.logical_layers,
            mapping=ctx.require("mapping", load=False),
            reshape=reshape,
            offline_seconds=ctx.seconds_for(OfflineMapPass.name),
            online_seconds=ctx.seconds_for(OnlineReshapePass.name),
            pass_timings=list(ctx.timings),
            metrics=dict(ctx.metrics),
        )
