"""Unit tests for the site-result cache and the engines' ``cache=``.

The invariants: cached results are byte-identical to fresh kernel runs
at *any* coordinate (translation invariance); the key covers exactly
the config that can change the visible outputs; the LRU byte budget
actually bounds memory; an engine with a cache -- barrier, streaming or
under the ``ShardPlane`` name the benchmark binds -- yields the serial
answer in input order, cold, warm or evicting; telemetry and serving
snapshots surface the cache.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig, StreamingEngine
from repro.resilience.workers import (
    ForcedWorkerFault,
    WorkerFaultKind,
    WorkerFaultPlan,
    WorkerRecovery,
)
from repro.shard import (
    ShardPlane,
    SiteResultCache,
    lookup_sites,
    site_cache_key,
)
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

_SITE_CACHE = {}


def _sites(n, seed=0):
    key = (n, seed)
    if key not in _SITE_CACHE:
        rng = np.random.default_rng(seed)
        _SITE_CACHE[key] = [
            synthesize_site(rng, BENCH_PROFILE,
                            complexity=0.3 + 0.15 * (i % 4),
                            start=i * 16_384)
            for i in range(n)
        ]
    return _SITE_CACHE[key]


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.same_outputs(b)
        np.testing.assert_array_equal(a.min_whd, b.min_whd)
        np.testing.assert_array_equal(a.min_whd_idx, b.min_whd_idx)
        np.testing.assert_array_equal(a.new_pos, b.new_pos)


#: Every class that takes ``cache=``, each on a two-worker pool.
_CACHED_ENGINES = (
    lambda config, **kw: Engine(
        dataclasses.replace(config, workers=2), **kw),
    lambda config, **kw: StreamingEngine(
        dataclasses.replace(config, workers=2), **kw),
    lambda config, **kw: ShardPlane(config, shards=2, **kw),
)


class TestSiteCacheKey:
    def test_translation_invariant(self):
        """chrom/start are excluded: a lifted cohort region still hits."""
        rng = np.random.default_rng(3)
        base = synthesize_site(rng, BENCH_PROFILE, 0.5, chrom="1", start=100)
        lifted = dataclasses.replace(base, chrom="7", start=987_654)
        config = EngineConfig()
        assert site_cache_key(base, config) == site_cache_key(lifted, config)

    def test_content_sensitive(self):
        rng = np.random.default_rng(3)
        a = synthesize_site(rng, BENCH_PROFILE, 0.5)
        b = synthesize_site(rng, BENCH_PROFILE, 0.5)
        config = EngineConfig()
        assert site_cache_key(a, config) != site_cache_key(b, config)

    #: Every ``EngineConfig`` field, with a second value to vary it to:
    #: keyed fields can change ``same_outputs``, excluded ones cannot.
    KEYED = {"scoring": "absdiff"}
    EXCLUDED = {"workers": 2, "batch": 2, "prefilter": False,
                "kernel": "fft"}

    def test_every_config_field_is_keyed_or_excluded(self):
        """A new field must be classified before the cache can be
        trusted with it; a hit guarantees ``same_outputs`` (not grid
        identity -- fft with the prefilter on leaves sentinels)."""
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        assert fields == set(self.KEYED) | set(self.EXCLUDED)
        assert not set(self.KEYED) & set(self.EXCLUDED)
        sites = _sites(4, seed=3)
        base = [site_cache_key(site, EngineConfig()) for site in sites]
        want = Engine(EngineConfig()).run_sites(sites)
        for name, value in self.EXCLUDED.items():
            config = EngineConfig(**{name: value})
            assert [site_cache_key(s, config) for s in sites] == base, name
            with Engine(config) as engine:
                got = engine.run_sites(sites)
            assert all(a.same_outputs(b) for a, b in zip(got, want)), name
        for name, value in self.KEYED.items():
            config = EngineConfig(**{name: value})
            assert all(site_cache_key(s, config) != key
                       for s, key in zip(sites, base)), name


class TestSiteResultCache:
    def _result_for(self, site):
        return Engine(EngineConfig()).run_sites([site])[0]

    def test_round_trip_is_identical(self):
        rng = np.random.default_rng(5)
        site = synthesize_site(rng, BENCH_PROFILE, 0.5, start=12_345)
        result = self._result_for(site)
        cache = SiteResultCache.from_megabytes(4)
        key = site_cache_key(site, EngineConfig())
        cache.put(key, site.start, result)
        got = cache.get(key, site.start)
        _assert_identical([got], [result])
        assert cache.hits == 1 and cache.misses == 0

    def test_materializes_at_new_coordinate(self):
        """A hit at a lifted start rebuilds new_pos against that start,
        byte-identical to realigning the lifted site from scratch."""
        rng = np.random.default_rng(5)
        site = synthesize_site(rng, BENCH_PROFILE, 0.6, start=1_000)
        lifted = dataclasses.replace(site, chrom="9", start=777_000)
        config = EngineConfig()
        cache = SiteResultCache.from_megabytes(4)
        cache.put(site_cache_key(site, config), site.start,
                  self._result_for(site))
        got = cache.get(site_cache_key(lifted, config), lifted.start)
        assert got is not None
        _assert_identical([got], [self._result_for(lifted)])

    def test_byte_budget_evicts_lru(self):
        sites = _sites(6, seed=5)
        results = Engine(EngineConfig()).run_sites(sites)
        config = EngineConfig()
        # Budget for roughly two entries, measured from the first.
        probe = SiteResultCache.from_megabytes(64)
        probe.put(site_cache_key(sites[0], config), sites[0].start,
                  results[0])
        cache = SiteResultCache(capacity_bytes=probe.current_bytes * 2 + 64)
        for site, result in zip(sites, results):
            cache.put(site_cache_key(site, config), site.start, result)
        assert cache.evictions > 0
        assert cache.current_bytes <= cache.capacity_bytes
        # The most recent entry survived; the first was evicted.
        assert cache.get(site_cache_key(sites[-1], config),
                         sites[-1].start) is not None
        assert cache.get(site_cache_key(sites[0], config),
                         sites[0].start) is None

    def test_oversized_entry_is_skipped(self):
        rng = np.random.default_rng(5)
        site = synthesize_site(rng, BENCH_PROFILE, 0.5)
        result = self._result_for(site)
        cache = SiteResultCache(capacity_bytes=16)
        cache.put(site_cache_key(site, EngineConfig()), site.start, result)
        assert len(cache) == 0 and cache.inserts == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SiteResultCache(capacity_bytes=0)

    def test_lookup_sites_without_cache(self):
        sites = _sites(3)
        results, misses, keys = lookup_sites(None, sites, EngineConfig())
        assert results == [None] * 3
        assert misses == [0, 1, 2]
        assert keys == [None] * 3

    def test_cacheless_run_never_loads_the_cache_module(self):
        """``realign`` with default flags must not pay for a cache it
        does not have (the engine imports the lookup lazily)."""
        import subprocess
        import sys

        code = (
            "import sys, numpy as np\n"
            "from repro.engine import Engine, EngineConfig\n"
            "from repro.workloads.generator import BENCH_PROFILE, "
            "synthesize_site\n"
            "site = synthesize_site(np.random.default_rng(0), "
            "BENCH_PROFILE)\n"
            "assert len(Engine(EngineConfig()).run_sites([site])) == 1\n"
            "assert not [m for m in sys.modules "
            "if m.startswith('repro.shard')]\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    def test_server_never_loads_the_fpga_model(self):
        """``repro serve`` realigns in software: a constructed server
        and a site through the inline engine must not pay for the
        refinement pipeline or the FPGA model."""
        import subprocess
        import sys

        code = (
            "import sys, numpy as np\n"
            "from repro.engine import Engine\n"
            "from repro.genomics.reference import ReferenceGenome\n"
            "from repro.serve.server import RealignmentServer\n"
            "from repro.workloads.generator import BENCH_PROFILE, "
            "synthesize_site\n"
            "RealignmentServer(ReferenceGenome.from_dict({'c': 'ACGT' * 50}))\n"
            "site = synthesize_site(np.random.default_rng(0), "
            "BENCH_PROFILE)\n"
            "assert len(Engine().run_sites([site])) == 1\n"
            "loaded = [m for m in sys.modules if m.startswith(("
            "'repro.refinement', 'repro.core', 'repro.hw'))]\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    def test_snapshot_counter_names(self):
        snap = SiteResultCache.from_megabytes(1).snapshot()
        assert set(snap) == {
            "cache.hits", "cache.misses", "cache.evictions",
            "cache.inserts", "cache.bytes", "cache.entries",
        }


class TestShardPlane:
    """The contract the read-only benchmark binds, and the engines'
    ``cache=`` through every class that takes it."""

    def test_merge_preserves_input_order_at_any_shard_count(self):
        sites = _sites(14, seed=1)
        want = Engine(EngineConfig(batch=4)).run_sites(sites)
        for shards in (1, 2, 3):
            with ShardPlane(EngineConfig(batch=4), shards=shards) as plane:
                _assert_identical(plane.run_sites(sites), want)

    def test_empty_run(self):
        with ShardPlane(EngineConfig(), shards=2) as plane:
            assert plane.run_sites([]) == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ShardPlane(EngineConfig(), shards=0)

    def test_pool_is_sized_by_shards_not_workers(self):
        import multiprocessing

        sites = _sites(8, seed=7)
        before = set(multiprocessing.active_children())
        with ShardPlane(EngineConfig(workers=4, batch=2), shards=1,
                        recovery=WorkerRecovery()) as plane:
            plane.run_sites(sites)
            assert set(multiprocessing.active_children()) <= before
        with ShardPlane(EngineConfig(workers=4, batch=2), shards=2,
                        recovery=WorkerRecovery()) as plane:
            plane.run_sites(sites)
            spawned = set(multiprocessing.active_children()) - before
            assert len(spawned) == 2
            # Fault-free, the alias below is absent like worker.* is.
            assert plane.recovery_counters == {}

    def test_cache_cold_then_warm(self):
        sites = _sites(8, seed=3)
        want = Engine(EngineConfig(batch=3)).run_sites(sites)
        for make in _CACHED_ENGINES:
            cache = SiteResultCache.from_megabytes(32)
            with make(EngineConfig(batch=3), cache=cache) as engine:
                _assert_identical(engine.run_sites(sites), want)
                assert (cache.hits, cache.misses) == (0, len(sites))
                assert len(engine.shard_stats) == 3
                _assert_identical(engine.run_sites(sites), want)
                assert (cache.hits, cache.misses) == (len(sites),
                                                      len(sites))
                assert engine.shard_stats == []

    def test_evicting_cache_stays_identical(self):
        sites = _sites(10, seed=4)
        want = Engine(EngineConfig(batch=2)).run_sites(sites)
        for make in _CACHED_ENGINES:
            # A budget too small for the working set: constant eviction.
            cache = SiteResultCache(capacity_bytes=4_096)
            with make(EngineConfig(batch=2), cache=cache) as engine:
                for _ in range(2):
                    _assert_identical(engine.run_sites(sites), want)
            assert cache.evictions > 0

    def test_telemetry_spans_and_counters(self):
        """The per-run tallies are the loop's, under one pair of names;
        chunks are the engine's spans whatever the class is called."""
        from repro.telemetry.spans import Telemetry

        sites = _sites(9, seed=6)
        cache = SiteResultCache.from_megabytes(32)
        with ShardPlane(EngineConfig(batch=3), shards=2,
                        cache=cache) as plane:
            plane.run_sites(sites[:3])
            telemetry = Telemetry(ticks_per_second=1.0)
            plane.run_sites(sites, telemetry=telemetry)
        assert len(telemetry.spans_in("engine")) == 2
        board = telemetry.counters.scalars
        assert board["engine.cache_hits"] == 3
        assert board["engine.cache_misses"] == 6
        assert board["engine.shard_sites"] == 6
        assert not [name for name in board if name.startswith("shard.")]

    def test_stream_sites_yields_input_order(self):
        """Hits and fresh results interleave back into input order."""
        sites = _sites(10, seed=9)
        want = Engine(EngineConfig(batch=2)).run_sites(sites)
        for make in _CACHED_ENGINES:
            cache = SiteResultCache.from_megabytes(32)
            with make(EngineConfig(batch=2), cache=cache) as engine:
                engine.run_sites(sites[1::3])
                _assert_identical(list(engine.stream_sites(sites)), want)
                assert sum(s.sites for s in engine.shard_stats) == 7

    def test_warm_prefix_is_yielded_before_any_chunk_completes(self):
        sites = _sites(8, seed=9)
        want = Engine(EngineConfig(batch=2)).run_sites(sites)
        for engine_cls in (Engine, StreamingEngine):
            cache = SiteResultCache.from_megabytes(32)
            with engine_cls(EngineConfig(workers=2, batch=2),
                            cache=cache) as engine:
                engine.run_sites(sites[:3])
                stream = engine.stream_sites(sites)
                head = [next(stream) for _ in range(3)]
                assert engine.shard_stats == []
                _assert_identical(head + list(stream), want)
                assert sum(s.sites for s in engine.shard_stats) == 5

    def test_all_hits_pass_forgets_the_previous_run(self):
        sites = _sites(8, seed=3)
        recovery = WorkerRecovery(plan=WorkerFaultPlan.scripted(
            ForcedWorkerFault(chunk=0, attempt=0,
                              kind=WorkerFaultKind.ERROR)))
        with ShardPlane(EngineConfig(batch=3), shards=2,
                        cache=SiteResultCache.from_megabytes(32),
                        recovery=recovery) as plane:
            plane.run_sites(sites)
            cold = dict(plane.recovery_counters)
            assert plane.shard_stats and plane.recovery_events
            # shard.retries is the pool's count under the probe's name.
            assert cold["shard.retries"] == cold["worker.retries"] >= 1
            plane.run_sites(sites)
            assert plane.shard_stats == []
            assert plane.recovery_events == []
            assert plane.recovery_counters == {}


class TestRealignerIntegration:
    def test_realigner_accepts_shard_plane(self):
        from repro.genomics.simulate import simulate_sample
        from repro.realign.realigner import IndelRealigner

        sample = simulate_sample({"chrS": 5_000}, seed=11)
        serial, _report = IndelRealigner(sample.reference).realign(
            sample.reads
        )
        plane = ShardPlane(EngineConfig(batch=3), shards=2)
        try:
            sharded, _report = IndelRealigner(
                sample.reference, engine=plane
            ).realign(sample.reads)
        finally:
            plane.close()
        assert [(r.name, r.pos, str(r.cigar)) for r in sharded] == \
               [(r.name, r.pos, str(r.cigar)) for r in serial]

class TestServingIntegration:
    def test_snapshot_surfaces_cache_and_shards(self):
        import asyncio

        from repro.serve.service import RealignmentService

        async def run(make):
            cache = SiteResultCache.from_megabytes(16)
            engine = make(EngineConfig(batch=4), cache=cache)
            service = RealignmentService(engine)
            await service.start()
            try:
                sites = _sites(6, seed=8)
                await service.submit_sites(sites)
                await service.submit_sites(sites)  # warm pass
                return service.snapshot()
            finally:
                await service.close()
                engine.close()

        for make in _CACHED_ENGINES:
            snapshot = asyncio.run(run(make))
            as_dict = snapshot.as_dict()
            assert snapshot.counters["cache.hits"] == 6
            assert snapshot.cache_hit_rate == 0.5
            assert as_dict["cache_hit_rate"] == snapshot.cache_hit_rate
            assert "cache 50.0% hit" in snapshot.describe()


class TestDuplicateHeavySchedule:
    def test_hot_set_dominates(self):
        from repro.workloads.serving import (
            LoadProfile,
            synthesize_load_schedule,
        )

        profile = LoadProfile(tenants=4, requests_per_tenant=16,
                              schedule="duplicate_heavy")
        schedule = synthesize_load_schedule(profile, num_jobs=32, seed=1)
        hot = max(1, 32 // 8)
        hot_hits = sum(1 for r in schedule if r.job < hot)
        assert hot_hits > len(schedule) * 0.6
        # Deterministic from the seed, like every schedule.
        assert schedule == synthesize_load_schedule(profile, num_jobs=32,
                                                    seed=1)

    def test_uniform_unchanged_by_new_field(self):
        from repro.workloads.serving import (
            LoadProfile,
            synthesize_load_schedule,
        )

        profile = LoadProfile(tenants=2, requests_per_tenant=4)
        jobs = [r.job for r in
                synthesize_load_schedule(profile, num_jobs=3, seed=0)]
        assert sorted(jobs) == sorted([c % 3 for c in range(8)])

    def test_rejects_unknown_schedule(self):
        from repro.workloads.serving import LoadProfile

        with pytest.raises(ValueError):
            LoadProfile(schedule="zipfian")
