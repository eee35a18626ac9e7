"""Unit tests for the content-addressed artifact cache (tiny parameters).

The bench-scale golden matrix (cache off / cold / warm x serial / process)
lives in benchmarks/test_cache_determinism.py; these tests pin the
cache's own contract: key derivation, backend behavior, hit replay fidelity,
pipeline wiring, and the process-pool pickling rules.
"""

import dataclasses
import pickle

import pytest
from oracles import unrewritten_passes

from repro.circuits import make_benchmark, to_jcz
from repro.errors import CompilationError
from repro.mbqc.translate import translate_circuit
from repro.offline.mapper import DEFAULT_BYTES_PER_NODE_LAYER
from repro.passes import ConnectivityValidatorPass
from repro.pipeline import (
    CachePass,
    CompilerPass,
    DiskCache,
    MemoryCache,
    Pipeline,
    PipelineSettings,
    TranslatePass,
    baseline_passes,
    cached_passes,
    circuit_fingerprint,
    default_passes,
    make_cache,
)
from repro.pipeline.context import DeferredArtifact, PassContext
from repro.utils.rng import RandomStream

SETTINGS = PipelineSettings(fusion_success_rate=0.9, rsl_size=24, virtual_size=2, max_rsl=10**5)
CIRCUIT = make_benchmark("qaoa", 4, seed=0)


def _metrics(result):
    return (result.rsl_count, result.fusion_count, result.logical_layers, result.pl_ratio)


class TestFingerprint:
    def test_stable_across_copies(self):
        assert circuit_fingerprint(CIRCUIT) == circuit_fingerprint(CIRCUIT.copy())

    def test_sensitive_to_content_and_name(self):
        other_seed = make_benchmark("qaoa", 4, seed=1)
        assert circuit_fingerprint(CIRCUIT) != circuit_fingerprint(other_seed)
        renamed = CIRCUIT.copy()
        renamed.name = "something-else"
        assert circuit_fingerprint(CIRCUIT) != circuit_fingerprint(renamed)


class TestBackends:
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_round_trip_and_counters(self, backend, tmp_path):
        cache = MemoryCache() if backend == "memory" else DiskCache(tmp_path)
        assert cache.fetch("00ab") is None
        cache.store("00ab", {"artifacts": {"x": [1, 2]}, "metrics": {"m": 3}})
        payload = cache.fetch("00ab")
        assert payload == {"artifacts": {"x": [1, 2]}, "metrics": {"m": 3}}
        assert len(cache) == 1
        assert cache.name == backend
        # Hit/miss counts live in each compilation's metrics, never on
        # the store, whose copies in process-pool workers never report.
        assert not hasattr(cache, "hits") and not hasattr(cache, "stats")

    def test_fetch_returns_fresh_copies(self, tmp_path):
        # Isolation against downstream mutation: two hits must never alias.
        for cache in (MemoryCache(), DiskCache(tmp_path)):
            cache.store("k", {"artifacts": {"x": [1]}, "metrics": {}})
            first = cache.fetch("k")["artifacts"]["x"]
            first.append(99)
            assert cache.fetch("k")["artifacts"]["x"] == [1]

    def test_disk_cache_shares_across_instances(self, tmp_path):
        DiskCache(tmp_path).store("k", {"artifacts": {}, "metrics": {"n": 1}})
        assert DiskCache(tmp_path).fetch("k") == {"artifacts": {}, "metrics": {"n": 1}}

    def test_backends_pickle_for_process_pools(self, tmp_path):
        memory = MemoryCache()
        memory.store("k", {"artifacts": {}, "metrics": {}})
        clone = pickle.loads(pickle.dumps(memory))
        assert clone.fetch("k") is not None  # snapshot rides along
        disk = DiskCache(tmp_path)
        disk.store("k", {"artifacts": {}, "metrics": {}})
        assert pickle.loads(pickle.dumps(disk)).fetch("k") is not None

    def test_make_cache_vocabulary(self, tmp_path):
        assert make_cache("off") is None
        assert isinstance(make_cache("memory"), MemoryCache)
        assert isinstance(make_cache("disk", tmp_path), DiskCache)
        with pytest.raises(CompilationError, match="--cache-dir"):
            make_cache("disk")
        with pytest.raises(CompilationError, match="unknown cache kind"):
            make_cache("redis")
        # A directory without a disk cache must error, never be ignored.
        for kind in ("memory", "off"):
            with pytest.raises(CompilationError, match="disk cache only"):
                make_cache(kind, tmp_path / "never-made")
        assert not (tmp_path / "never-made").exists()


class TestCachePassWiring:
    def test_wrapper_presents_inner_contract(self):
        cache = MemoryCache()
        wrapped = CachePass(TranslatePass(), cache)
        assert wrapped.name == "translate"
        assert wrapped.provides == ("pattern",)
        assert wrapped.requires == ()

    def test_non_cacheable_pass_rejected(self):
        with pytest.raises(CompilationError, match="not cacheable"):
            CachePass(ConnectivityValidatorPass(), MemoryCache())

    def test_double_wrap_rejected(self):
        cache = MemoryCache()
        with pytest.raises(CompilationError, match="already cached"):
            CachePass(CachePass(TranslatePass(), cache), cache)

    def test_cached_passes_skips_ineligible(self):
        cache = MemoryCache()
        chain = Pipeline(SETTINGS).insert_pass(
            ConnectivityValidatorPass(), after="translate"
        ).passes
        wrapped = cached_passes(chain, cache)
        kinds = [type(stage).__name__ for stage in wrapped]
        assert kinds == [
            "CachePass", "ConnectivityValidatorPass", "CachePass", "CachePass",
            "CachePass",
        ]
        rewrapped = cached_passes(wrapped, cache)
        assert [type(s).__name__ for s in rewrapped] == kinds


class TestCachedCompilation:
    def test_off_cold_warm_identical(self):
        reference = Pipeline(SETTINGS).compile(CIRCUIT, seed=7)
        cache = MemoryCache()
        cached = Pipeline(SETTINGS, cache=cache)
        cold = cached.compile(CIRCUIT, seed=7)
        warm = cached.compile(CIRCUIT, seed=7)
        assert _metrics(reference) == _metrics(cold) == _metrics(warm)
        assert cold.metrics["cache_misses"] == 4
        assert warm.metrics["cache_hits"] == 4

    def test_hit_replays_pass_metrics(self):
        cache = MemoryCache()
        cached = Pipeline(SETTINGS, cache=cache)
        cold = cached.compile(CIRCUIT, seed=7)
        warm = cached.compile(CIRCUIT, seed=7)
        drop = ("cache_hits", "cache_misses")
        assert {k: v for k, v in cold.metrics.items() if k not in drop} == {
            k: v for k, v in warm.metrics.items() if k not in drop
        }
        assert "logical_layers_mapped" in warm.metrics
        assert "rsl_count" in warm.metrics

    def test_deterministic_prefix_shared_across_seeds(self):
        cache = MemoryCache()
        cached = Pipeline(SETTINGS, cache=cache)
        cached.compile(CIRCUIT, seed=0)
        second = cached.compile(CIRCUIT, seed=1)
        # translate + rewrite + offline-map hit (seedless keys);
        # online-reshape missed (its key folds in the derived stream seed).
        assert second.metrics["cache_hits"] == 3
        assert second.metrics["cache_misses"] == 1
        assert _metrics(second) == _metrics(Pipeline(SETTINGS).compile(CIRCUIT, seed=1))

    def test_distinct_settings_do_not_collide(self):
        cache = MemoryCache()
        loose = PipelineSettings(
            fusion_success_rate=0.9, rsl_size=24, virtual_size=2,
            max_rsl=10**5, refresh_every=2,
        )
        a = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        b = Pipeline(loose, cache=cache).compile(CIRCUIT, seed=0)
        assert a.metrics["cache_misses"] == 4
        # translate and rewrite read nothing the settings change, so they
        # hit; offline-map reads the refresh period and misses, and so
        # does online-reshape, whose input now has a different key.
        assert (b.metrics["cache_hits"], b.metrics["cache_misses"]) == (2, 2)
        assert _metrics(b) == _metrics(Pipeline(loose).compile(CIRCUIT, seed=0))

    def test_baseline_chain_cached(self):
        reference = Pipeline(SETTINGS, passes=baseline_passes()).compile(
            CIRCUIT, seed=3
        )
        cache = MemoryCache()
        cached = Pipeline(SETTINGS, passes=baseline_passes(), cache=cache)
        cold = cached.compile(CIRCUIT, seed=3)
        warm = cached.compile(CIRCUIT, seed=3)
        for result in (cold, warm):
            assert (result.rsl_count, result.fusion_count, result.restarts) == (
                reference.rsl_count, reference.fusion_count, reference.restarts,
            )
        assert cold.metrics["cache_misses"] == 2  # translate + baseline
        assert warm.metrics["cache_hits"] == 2

    def test_with_cache_and_none(self):
        cache = MemoryCache()
        cached = Pipeline(SETTINGS).with_cache(cache)
        assert cached.cache is cache
        assert _metrics(cached.compile(CIRCUIT, seed=2)) == _metrics(
            Pipeline(SETTINGS).with_cache(None).compile(CIRCUIT, seed=2)
        )

    def test_with_cache_rebinds_and_unbinds(self):
        """Rebinding an already-cached pipeline must swap the store for
        real, and with_cache(None) must stop all lookups."""
        first, second = MemoryCache(), MemoryCache()
        cached = Pipeline(SETTINGS, cache=first)
        warm = cached.compile(CIRCUIT, seed=0)
        assert warm.metrics["cache_misses"] == 4 and len(first) == 4
        rebound = cached.with_cache(second)
        result = rebound.compile(CIRCUIT, seed=0)
        # Cold against the new store although ``first`` holds every entry.
        assert result.metrics["cache_misses"] == 4
        assert "cache_hits" not in result.metrics
        assert len(second) == 4
        assert rebound.compile(CIRCUIT, seed=0).metrics["cache_hits"] == 4
        unbound = cached.with_cache(None)
        plain = unbound.compile(CIRCUIT, seed=0)
        assert _metrics(plain) == _metrics(result)
        # Truly uncached, not silently reading ``first``: no lookup at all.
        assert "cache_hits" not in plain.metrics
        assert "cache_misses" not in plain.metrics

    def test_disk_cache_through_process_backend(self, tmp_path):
        from repro.experiments import CompileJob, make_runner

        jobs = [
            CompileJob(
                key=f"qaoa4/s{seed}",
                family="qaoa",
                num_qubits=4,
                settings=SETTINGS,
                seed=seed,
                circuit_seed=0,
            )
            for seed in (0, 1)
        ]
        cache = DiskCache(tmp_path)
        runner = make_runner("process", max_workers=2, cache=cache)
        kwargs = dict(experiment="cache-probe", scale="bench", seed=0)
        cold = list(runner.iter_jobs(jobs, **kwargs))
        warm = list(runner.iter_jobs(jobs, **kwargs))
        serial = [Pipeline(SETTINGS).compile(CIRCUIT, seed=s) for s in (0, 1)]
        expected = [(r.rsl_count, r.fusion_count) for r in serial]
        for records in (cold, warm):
            assert [
                (r.fields["rsl_count"], r.fields["fusion_count"]) for r in records
            ] == expected
        # Workers wrote through to the shared directory, so the warm pass
        # hit every stage of every job.
        assert all(r.metrics.get("cache_hits", 0) == 4 for r in warm)


class TestEviction:
    """The max_bytes LRU budget: recency tracking, bounds, and accounting."""

    def _fill(self, cache, names, payload_bytes=200):
        for name in names:
            cache.store(name, {"artifacts": {"x": b"a" * payload_bytes}, "metrics": {}})

    def test_budget_bounds_total_bytes(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=2000)
        self._fill(cache, [f"k{i:02d}" for i in range(20)], payload_bytes=300)
        assert cache.total_bytes() <= 2000
        assert cache.evictions > 0
        assert len(cache) < 20

    def test_least_recently_used_goes_first(self, tmp_path):
        import os
        import time

        cache = DiskCache(tmp_path, max_bytes=10**6)
        self._fill(cache, ["old", "mid", "new"])
        # Pin distinct mtimes (filesystem granularity is not guaranteed),
        # then touch "old" via a hit so "mid" becomes the LRU entry.
        now = time.time()
        for name, age in (("old", 300), ("mid", 200), ("new", 100)):
            os.utime(cache._path(name), (now - age, now - age))
        assert cache.fetch("old") is not None
        cache.max_bytes = cache.total_bytes() - 1  # force one eviction
        cache.store("extra", {"artifacts": {}, "metrics": {}})
        assert cache.fetch("mid") is None  # evicted: least recently used
        assert cache.fetch("old") is not None  # the hit refreshed it
        assert cache.fetch("new") is not None

    def test_evicted_entry_reads_as_miss_and_recomputes(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1000)
        self._fill(cache, [f"k{i}" for i in range(4)], payload_bytes=400)
        assert cache.evictions > 0
        assert any(cache.fetch(f"k{i}") is None for i in range(4))
        # End-to-end correctness under a budget nothing can fit: every
        # artifact is skipped as oversized, every lookup misses, results
        # are still byte-identical.
        tight = DiskCache(tmp_path / "tight", max_bytes=1)
        pipeline = Pipeline(SETTINGS, cache=tight)
        first = pipeline.compile(CIRCUIT, seed=0)
        second = pipeline.compile(CIRCUIT, seed=0)
        assert _metrics(first) == _metrics(second)
        assert second.metrics.get("cache_hits", 0) == 0  # nothing survived
        assert len(tight) == 0  # oversized artifacts were never stored

    def test_oversized_entry_skipped_without_thrashing_warm_set(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1500)
        self._fill(cache, ["warm1", "warm2"], payload_bytes=300)
        survivors = len(cache)
        cache.store("huge", {"artifacts": {"x": b"a" * 5000}, "metrics": {}})
        assert cache.fetch("huge") is None  # never stored: reads as a miss
        assert len(cache) == survivors  # the warm set was not sacrificed
        assert cache.evictions == 0

    def test_invalid_budgets_rejected(self, tmp_path):
        with pytest.raises(CompilationError, match="positive"):
            DiskCache(tmp_path, max_bytes=0)
        # A budget without a disk store must error, never silently no-op.
        with pytest.raises(CompilationError, match="disk"):
            make_cache("memory", max_bytes=100)
        with pytest.raises(CompilationError, match="disk"):
            make_cache("off", max_bytes=100)
        assert make_cache("disk", tmp_path, max_bytes=100).max_bytes == 100

    def test_budget_survives_reopening_an_existing_store(self, tmp_path):
        # The running estimate seeds from disk, so a reopened store still
        # enforces its budget on the next write.
        unbounded = DiskCache(tmp_path)
        self._fill(unbounded, [f"k{i:02d}" for i in range(10)], payload_bytes=300)
        reopened = DiskCache(tmp_path, max_bytes=1500)
        reopened.store("one-more", {"artifacts": {"x": b"a" * 300}, "metrics": {}})
        assert reopened.total_bytes() <= 1500
        assert reopened.evictions > 0

    def test_process_runner_keeps_the_budget(self, tmp_path):
        # A worker's unpickled store estimates only its own writes, so the
        # parent enforces the budget as chunks come back; before it did,
        # this run left 16 entries (50,851 B) under its 30,000 B budget.
        from repro.experiments import get_experiment, make_runner

        cache = DiskCache(tmp_path, max_bytes=30_000)
        runner = make_runner("process", max_workers=2, cache=cache)
        get_experiment("fig14").run("bench", 0, runner)
        assert cache.total_bytes() <= 30_000

    def test_overwrites_keep_the_size_estimate_flat(self, tmp_path, monkeypatch):
        # Re-storing one key replaces its file, so the estimate must stay
        # at ~one entry.  The old bug charged the full blob on every
        # overwrite: the estimate drifted upward until a store sitting
        # comfortably under budget paid a spurious full-directory eviction
        # scan on every subsequent write — so count the scans too.
        cache = DiskCache(tmp_path, max_bytes=10_000)
        scans = []
        real_evict = DiskCache._evict_to_budget
        monkeypatch.setattr(
            DiskCache,
            "_evict_to_budget",
            lambda self: scans.append(1) or real_evict(self),
        )
        for _round in range(40):  # 40 * 200B would blow the 10kB budget
            cache.store("same-key", {"artifacts": {"x": b"a" * 200}, "metrics": {}})
        assert len(cache) == 1
        assert cache._approx_bytes == cache.total_bytes()
        assert scans == []  # never over budget, so never a scan
        assert cache.evictions == 0

    def test_write_fsyncs_before_publishing(self, tmp_path, monkeypatch):
        # Durability contract: the temp file reaches stable storage before
        # os.replace makes it visible, so a crash cannot publish a
        # truncated entry.
        import os as os_module

        import repro.pipeline.cache as cache_module

        order = []
        real_fsync = os_module.fsync
        real_replace = os_module.replace
        monkeypatch.setattr(
            cache_module.os,
            "fsync",
            lambda fd: order.append("fsync") or real_fsync(fd),
        )
        monkeypatch.setattr(
            cache_module.os,
            "replace",
            lambda src, dst: order.append("replace") or real_replace(src, dst),
        )
        cache = DiskCache(tmp_path)
        cache.store("key", {"artifacts": {"x": b"payload"}, "metrics": {}})
        assert order == ["fsync", "replace"]
        assert cache.fetch("key") is not None


class TestMaintenance:
    """Startup hygiene for long-running stores: verify."""

    def test_verify_drops_corrupt_entries_and_counts(self, tmp_path):
        from repro import obs
        from repro.obs.summarize import load_events

        cache = DiskCache(tmp_path)
        cache.store("00good", {"artifacts": {"x": 1}, "metrics": {}})
        cache.store("11trunc", {"artifacts": {"y": 2}, "metrics": {}})
        cache.store("22alien", {"artifacts": {"z": 3}, "metrics": {}})
        # torn write: half a pickle; alien: valid pickle, wrong payload shape
        trunc = cache._path("11trunc")
        trunc.write_bytes(trunc.read_bytes()[:7])
        cache._path("22alien").write_bytes(pickle.dumps([1, 2, 3]))
        events_path = tmp_path / "events.jsonl"
        with obs.session(events_path=str(events_path)) as tele:
            dropped = cache.verify()
        assert dropped == 2
        assert len(cache) == 1
        assert cache.fetch("00good") is not None
        assert cache.fetch("11trunc") is None  # a counted miss, not a crash
        assert tele.metrics.snapshot()["counters"]["cache.verify_dropped"] == 2
        kinds = [event["kind"] for event in load_events(events_path)]
        assert "cache_verified" in kinds

    def test_verify_clean_store_is_a_no_op(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("00k", {"artifacts": {}, "metrics": {}})
        assert cache.verify() == 0
        assert cache.fetch("00k") is not None

    def test_verify_resyncs_budget_accounting(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=10_000)
        cache.store("00k", {"artifacts": {"x": list(range(50))}, "metrics": {}})
        cache._path("00k").write_bytes(b"garbage")
        cache.verify()
        assert cache._approx_bytes == cache.total_bytes() == 0


class UnsimplifiedLowering(CompilerPass):
    """Swaps in the unsimplified {J, CZ} lowering of the circuit.

    A pattern-changing pass the cache does not wrap: it leaves the
    pattern unkeyed.
    """

    name = "unsimplified"
    requires = ("pattern",)
    provides = ("pattern",)

    def run(self, ctx):
        lowered = to_jcz(ctx.circuit, simplify=False)
        lowered.name = ctx.circuit.name  # the pattern keeps "<circuit>:pattern"
        ctx.put("pattern", translate_circuit(lowered))


class CachedUnsimplifiedLowering(UnsimplifiedLowering):
    cacheable = True
    reads = ("circuit",)


class TestChainedKeys:
    """Keys chain over the passes that produced a pass's inputs."""

    def test_inserted_pattern_pass_never_reads_the_plain_chain(self):
        settings = PipelineSettings()
        circuit = make_benchmark("qaoa", 4, seed=0)
        custom = Pipeline(settings, unrewritten_passes(), seed=0).insert_pass(
            UnsimplifiedLowering(), after="translate"
        )
        uncached = custom.compile(circuit)
        assert (uncached.rsl_count, uncached.logical_layers) == (114, 34)
        cache = MemoryCache()
        plain = Pipeline(
            settings, unrewritten_passes(), seed=0, cache=cache
        ).compile(circuit)
        assert (plain.rsl_count, plain.logical_layers) == (57, 17)
        cached = custom.with_cache(cache).compile(circuit)
        assert _metrics(cached) == _metrics(uncached)
        # Only translate is shared; the unkeyed pattern sends everything
        # downstream of the inserted pass round the cache.
        assert cached.metrics["cache_hits"] == 1
        assert "cache_misses" not in cached.metrics

    def test_cached_inserted_pass_keys_its_own_chain(self):
        settings = PipelineSettings()
        circuit = make_benchmark("qaoa", 4, seed=0)
        cache = MemoryCache()
        Pipeline(settings, unrewritten_passes(), seed=0, cache=cache).compile(circuit)
        custom = Pipeline(
            settings, unrewritten_passes(), seed=0, cache=cache
        ).insert_pass(CachedUnsimplifiedLowering(), after="translate")
        cold = custom.compile(circuit)
        warm = custom.compile(circuit)
        assert (cold.rsl_count, cold.logical_layers) == (114, 34)
        assert _metrics(warm) == _metrics(cold)
        assert (cold.metrics["cache_hits"], cold.metrics["cache_misses"]) == (1, 3)
        assert warm.metrics["cache_hits"] == 4

    def test_fusion_rate_siblings_share_the_offline_prefix(self):
        cache = MemoryCache()
        Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        sibling = dataclasses.replace(SETTINGS, fusion_success_rate=0.75, rsl_size=48)
        result = Pipeline(sibling, cache=cache).compile(CIRCUIT, seed=0)
        # translate, rewrite and offline-map read neither the rate nor the
        # RSL size; online-reshape reads the config and misses.
        assert (result.metrics["cache_hits"], result.metrics["cache_misses"]) == (3, 1)
        assert _metrics(result) == _metrics(Pipeline(sibling).compile(CIRCUIT, seed=0))


class TestSchema:
    def test_schema_4_entries_are_misses(self, monkeypatch):
        """A schema-4 mapping pickled the IR without its columns; schema 5
        never derives a schema-4 key, so such an entry cannot be hit."""
        import repro.pipeline.cache as cache_module

        cache = MemoryCache()
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 4)
            Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        assert len(cache) == 4
        result = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        assert "cache_hits" not in result.metrics
        assert result.metrics["cache_misses"] == 4
        assert len(cache) == 8


class TestLazyHits:
    def test_warm_compile_leaves_the_mapping_pickled_until_read(self):
        cache = MemoryCache()
        cold = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        warm = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        assert type(warm.__dict__["_mapping"]) is DeferredArtifact
        assert warm.mapping.layer_count == cold.mapping.layer_count
        assert warm.mapping is warm.mapping  # loaded once, then kept

    def test_every_load_is_a_fresh_copy(self):
        cache = MemoryCache()
        Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        first = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        second = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        assert first.mapping is not second.mapping
        assert first.reshape is not second.reshape

    def test_inputs_load_before_the_pass_timer(self, monkeypatch):
        from repro.pipeline.passes import OnlineReshapePass

        seen = []
        real_run = OnlineReshapePass.run

        def probe(stage, ctx):
            seen.append(type(ctx.artifacts["mapping"]))
            real_run(stage, ctx)

        monkeypatch.setattr(OnlineReshapePass, "run", probe)
        cache = MemoryCache()
        Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        # A new seed: offline-map hits (its mapping is bound deferred) and
        # online-reshape misses, so the pipeline loads its input first.
        result = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=1)
        assert result.metrics["cache_hits"] == 3
        assert seen[-1] is not DeferredArtifact

    def test_hit_over_a_loaded_input_binds_eagerly(self):
        cache = MemoryCache()
        cold = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        cache._discard(cache.key_for(TranslatePass(), SETTINGS.context_for(CIRCUIT, 0)))
        # translate misses, so rewrite's input is a loaded pattern: every
        # hit downstream binds its artifacts loaded, not deferred.
        ctx = Pipeline(SETTINGS, cache=cache).run_circuit(CIRCUIT, seed=0)
        assert (ctx.metrics["cache_hits"], ctx.metrics["cache_misses"]) == (3, 1)
        assert not any(
            type(value) is DeferredArtifact for value in ctx.artifacts.values()
        )
        assert ctx.artifacts["reshape"].rsl_consumed == cold.rsl_count

    def test_result_pickles_with_its_mapping_loaded(self):
        cache = MemoryCache()
        cold = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        warm = Pipeline(SETTINGS, cache=cache).compile(CIRCUIT, seed=0)
        clone = pickle.loads(pickle.dumps(warm))
        assert type(clone.__dict__["_mapping"]) is not DeferredArtifact
        assert clone.mapping.layer_count == cold.mapping.layer_count


class TestCorruptEntries:
    """An entry or artifact that fails to load is a counted miss."""

    def test_truncated_entries_become_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        pipeline = Pipeline(SETTINGS, cache=cache)
        cold = pipeline.compile(CIRCUIT, seed=0)
        entries = list(cache._entries())
        assert len(entries) == 4
        for path in entries:
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2])
        again = pipeline.compile(CIRCUIT, seed=0)
        assert _metrics(again) == _metrics(cold)
        assert again.metrics["cache_misses"] == 4
        assert "cache_hits" not in again.metrics
        # The misses stored fresh entries over the dropped ones.
        warm = pipeline.compile(CIRCUIT, seed=0)
        assert warm.metrics["cache_hits"] == 4
        assert _metrics(warm) == _metrics(cold)

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_artifact_that_fails_to_load_is_recomputed(self, backend, tmp_path):
        cache = MemoryCache() if backend == "memory" else DiskCache(tmp_path)
        pipeline = Pipeline(SETTINGS, cache=cache)
        cold = pipeline.compile(CIRCUIT, seed=0)
        # Keep every entry readable but truncate each artifact inside it.
        for key in _keys(cache):
            entry = pickle.loads(cache._read(key))
            entry["artifacts"] = {
                name: blob[: len(blob) // 2]
                for name, blob in entry["artifacts"].items()
            }
            cache._write(key, pickle.dumps(entry))
        again = pipeline.compile(CIRCUIT, seed=0)
        assert _metrics(again) == _metrics(cold)
        assert again.mapping.layer_count == cold.mapping.layer_count
        # Loading the reshape recomputed the whole chain: four hits became
        # four misses and every entry was dropped.
        assert again.metrics["cache_misses"] == 4
        assert again.metrics.get("cache_hits", 0) == 0
        assert len(cache) == 0

    def test_verify_loads_every_artifact(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store("00k", {"artifacts": {"x": list(range(50))}, "metrics": {}})
        path = cache._path("00k")
        entry = pickle.loads(path.read_bytes())
        entry["artifacts"]["x"] = entry["artifacts"]["x"][:5]
        path.write_bytes(pickle.dumps(entry))
        assert cache.verify() == 1
        assert len(cache) == 0


def _keys(cache):
    if isinstance(cache, MemoryCache):
        return list(cache._store)
    return [path.stem for path in cache._entries()]


#: Two values of every context field a pass may read; every other read
#: names a ``PipelineSettings`` field.  ``stream`` stands for the seed: a
#: stochastic pass's key holds the child seed it derives, a deterministic
#: pass must not read the stream at all.  The second value changes the
#: output of any pass that reads it, which is what gives the property the
#: power to catch an undeclared read.  The two circuits share a name, as a
#: stochastic pass sees the circuit name only through its child seed.
CONTEXT_VARIANTS = {
    "circuit": (CIRCUIT, make_benchmark("qaoa", 4, seed=1)),
    "config": (
        SETTINGS.hardware_for(4)[0],
        dataclasses.replace(SETTINGS, fusion_success_rate=0.75).hardware_for(4)[0],
    ),
    "virtual_size": (2, 3),
    "stream": (0, 1),
}

#: Two values of every ``PipelineSettings`` field, the first as in
#: ``SETTINGS``.  A pass reads the settings through ``ctx.settings``; the
#: fields the context already resolves (``virtual_size`` through the
#: ``virtual_size`` context field, the rest through ``config``) vary here
#: apart from their context fields, so a pass reading the raw setting is
#: caught too.
SETTINGS_VARIANTS = {
    "fusion_success_rate": (0.9, 0.75),
    "resource_state_size": (4, 6),
    "rsl_size": (24, 36),
    "virtual_size": (2, 3),
    "node_side": (None, 24),
    "refresh_every": (None, 2),
    "memory_budget_bytes": (None, 1),
    "bytes_per_node_layer": (DEFAULT_BYTES_PER_NODE_LAYER, 1),
    "photon_loss_rate": (0.0, 0.1),
    "max_rsl": (10**5, 3),
}

#: The ``PassContext`` fields that are the pass bus, not inputs to read.
BUS_FIELDS = {"artifacts", "timings", "metrics", "artifact_keys", "lookups"}

CACHEABLE = list(
    {stage.name: stage for stage in (*default_passes(), *baseline_passes())
     if stage.cacheable}.values()
)


def _declared(stage):
    return set(stage.reads) | ({"stream"} if stage.rng_labels else set())


def _outcome(stage, context, settings, inputs):
    """What one run of ``stage`` produces: artifacts and metrics, or the error."""
    ctx = PassContext(
        circuit=context["circuit"],
        config=context["config"],
        virtual_size=context["virtual_size"],
        stream=RandomStream(context["stream"]),
        settings=PipelineSettings(**settings),
        artifacts={name: pickle.loads(blob) for name, blob in inputs.items()},
    )
    try:
        stage.run(ctx)
    except Exception as exc:  # noqa: BLE001 - an error is an outcome too
        return ("raised", type(exc).__name__, str(exc))
    artifacts = {name: pickle.dumps(ctx.artifacts[name]) for name in stage.provides}
    return artifacts, ctx.metrics


def _values(variants, kept):
    """The first value of every variant in ``kept``, the second of the rest."""
    return {
        name: pair[0] if name in kept else pair[1] for name, pair in variants.items()
    }


def _undeclared_reads_are_inert(stage, declared):
    """Does varying every field outside ``declared`` leave the output alone?

    A declared read names a context field when there is one of that name,
    so the settings field of the same name is always varied.
    """
    upstream = Pipeline(SETTINGS).run_circuit(CIRCUIT, seed=0).artifacts
    inputs = {name: pickle.dumps(upstream[name]) for name in stage.requires}
    base = _outcome(
        stage,
        _values(CONTEXT_VARIANTS, CONTEXT_VARIANTS),
        _values(SETTINGS_VARIANTS, SETTINGS_VARIANTS),
        inputs,
    )
    varied = _outcome(
        stage,
        _values(CONTEXT_VARIANTS, declared),
        _values(SETTINGS_VARIANTS, declared - set(CONTEXT_VARIANTS)),
        inputs,
    )
    return base == varied


class TestKeyCompleteness:
    """A pass's key holds everything its artifacts depend on.

    The key hashes a pass's declared reads and the keys of its inputs; the
    property is that nothing else the pass could read changes its output.
    """

    def test_variants_cover_every_field_and_option(self):
        context_fields = {field.name for field in dataclasses.fields(PassContext)}
        assert context_fields - BUS_FIELDS == set(CONTEXT_VARIANTS) | {"settings"}
        settings_fields = {field.name for field in dataclasses.fields(PipelineSettings)}
        assert set(SETTINGS_VARIANTS) == settings_fields
        assert _values(SETTINGS_VARIANTS, settings_fields) == dataclasses.asdict(SETTINGS)
        assert {stage.name for stage in CACHEABLE} == {
            "translate", "rewrite", "offline-map", "online-reshape", "baseline",
        }
        for stage in CACHEABLE:
            assert set(stage.reads) <= set(CONTEXT_VARIANTS) | settings_fields

    @pytest.mark.parametrize("stage", CACHEABLE, ids=lambda stage: stage.name)
    def test_undeclared_fields_do_not_change_artifacts(self, stage):
        assert _undeclared_reads_are_inert(stage, _declared(stage))

    @pytest.mark.parametrize(
        "stage, read",
        [(stage, read) for stage in CACHEABLE for read in sorted(_declared(stage))],
        ids=lambda value: value if isinstance(value, str) else value.name,
    )
    def test_dropping_a_declared_read_breaks_the_property(self, stage, read):
        assert not _undeclared_reads_are_inert(stage, _declared(stage) - {read})
