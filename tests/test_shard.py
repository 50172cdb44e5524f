"""Unit tests for the horizontal shard plane and the site-result cache.

The invariants: the partition function is stable and total; cached
results are byte-identical to fresh kernel runs at *any* coordinate
(translation invariance); the LRU byte budget actually bounds memory;
the plane's merge preserves input order at any shard count; telemetry
and serving snapshots surface the cache and per-shard occupancy.
"""

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.resilience.workers import (
    ForcedWorkerFault,
    WorkerFaultKind,
    WorkerFaultPlan,
    WorkerRecovery,
)
from repro.shard import (
    DEFAULT_REGION_SPAN,
    ShardPlane,
    ShardPlaneConfig,
    SiteResultCache,
    lookup_sites,
    shard_for,
    site_cache_key,
)
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

_SITE_CACHE = {}


def _sites(n, seed=0, spread=True):
    key = (n, seed, spread)
    if key not in _SITE_CACHE:
        rng = np.random.default_rng(seed)
        _SITE_CACHE[key] = [
            synthesize_site(rng, BENCH_PROFILE,
                            complexity=0.3 + 0.15 * (i % 4),
                            start=(i * 4 * DEFAULT_REGION_SPAN
                                   if spread else 0))
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


class TestShardFor:
    def test_stable_and_total(self):
        for shards in (1, 2, 3, 8):
            for start in range(0, 200_000, 7_919):
                home = shard_for("22", start, shards)
                assert 0 <= home < shards
                assert home == shard_for("22", start, shards)

    def test_same_region_same_shard(self):
        assert shard_for("22", 100, 4) == shard_for("22", 101, 4)
        assert shard_for("22", 0, 4) == shard_for(
            "22", DEFAULT_REGION_SPAN - 1, 4
        )

    def test_contigs_spread(self):
        homes = {shard_for(str(c), 0, 4) for c in range(1, 23)}
        assert len(homes) > 1

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            shard_for("22", 0, 0)


class TestSiteCacheKey:
    def test_translation_invariant(self):
        """chrom/start are excluded: a lifted cohort region still hits."""
        rng = np.random.default_rng(3)
        base = synthesize_site(rng, BENCH_PROFILE, 0.5, chrom="1", start=100)
        from dataclasses import replace

        lifted = replace(base, chrom="7", start=987_654)
        config = EngineConfig()
        assert site_cache_key(base, config) == site_cache_key(lifted, config)

    def test_content_sensitive(self):
        rng = np.random.default_rng(3)
        a = synthesize_site(rng, BENCH_PROFILE, 0.5)
        b = synthesize_site(rng, BENCH_PROFILE, 0.5)
        config = EngineConfig()
        assert site_cache_key(a, config) != site_cache_key(b, config)

    def test_grid_shaping_config_is_keyed(self):
        """prefilter/scoring change grids; kernel/workers/batch do not."""
        rng = np.random.default_rng(3)
        site = synthesize_site(rng, BENCH_PROFILE, 0.5)
        base = site_cache_key(site, EngineConfig())
        assert base != site_cache_key(site, EngineConfig(prefilter=False))
        assert base != site_cache_key(site, EngineConfig(scoring="absdiff"))
        for kernel in ("fft", "bitpack", "native", "vector", "scalar"):
            assert base == site_cache_key(site, EngineConfig(kernel=kernel))
        assert base == site_cache_key(site, EngineConfig(workers=4, batch=2))


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
        from dataclasses import replace

        rng = np.random.default_rng(5)
        site = synthesize_site(rng, BENCH_PROFILE, 0.6, start=1_000)
        lifted = replace(site, chrom="9", start=777_000)
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

    def test_snapshot_counter_names(self):
        snap = SiteResultCache.from_megabytes(1).snapshot()
        assert set(snap) == {
            "cache.hits", "cache.misses", "cache.evictions",
            "cache.inserts", "cache.bytes", "cache.entries",
        }


class TestShardPlane:
    def test_merge_preserves_input_order_at_any_shard_count(self):
        sites = _sites(14, seed=1)
        want = Engine(EngineConfig(batch=4)).run_sites(sites)
        for shards in (1, 2, 3, 5):
            with ShardPlane(EngineConfig(batch=4), shards=shards) as plane:
                _assert_identical(plane.run_sites(sites), want)

    def test_unspread_sites_still_complete(self):
        """Every site hashing to one home shard is legal: any free
        worker takes the home's chunks and the merge is unaffected."""
        sites = _sites(6, seed=2, spread=False)
        want = Engine(EngineConfig(batch=2)).run_sites(sites)
        with ShardPlane(EngineConfig(batch=2), shards=3) as plane:
            _assert_identical(plane.run_sites(sites), want)
            assert plane.recovery_counters["shard.sites"] == len(sites)

    def test_empty_run(self):
        with ShardPlane(EngineConfig(), shards=2) as plane:
            assert plane.run_sites([]) == []

    def test_cache_cold_then_warm(self):
        sites = _sites(8, seed=3)
        want = Engine(EngineConfig(batch=3)).run_sites(sites)
        cache = SiteResultCache.from_megabytes(32)
        with ShardPlane(EngineConfig(batch=3), shards=2,
                        cache=cache) as plane:
            _assert_identical(plane.run_sites(sites), want)
            cold = dict(plane.recovery_counters)
            _assert_identical(plane.run_sites(sites), want)
            warm = dict(plane.recovery_counters)
        assert cold["shard.cache_misses"] == len(sites)
        assert warm["shard.cache_hits"] == len(sites)
        assert "shard.dispatched_chunks" not in warm

    def test_evicting_cache_stays_identical(self):
        sites = _sites(10, seed=4)
        want = Engine(EngineConfig(batch=2)).run_sites(sites)
        # A budget too small for the working set: constant eviction.
        cache = SiteResultCache(capacity_bytes=4_096)
        with ShardPlane(EngineConfig(batch=2), shards=2,
                        cache=cache) as plane:
            for _ in range(2):
                _assert_identical(plane.run_sites(sites), want)
        assert cache.evictions > 0

    def test_telemetry_spans_and_counters(self):
        from repro.telemetry.spans import Telemetry

        sites = _sites(9, seed=6)
        telemetry = Telemetry(ticks_per_second=1.0)
        with ShardPlane(EngineConfig(batch=3), shards=2) as plane:
            plane.run_sites(sites, telemetry=telemetry)
        shard_spans = telemetry.spans_in("shard")
        assert shard_spans, "expected CAT_SHARD spans on shard tracks"
        assert all(s.track.startswith("shard plane") for s in shard_spans)
        board = telemetry.counters.scalars
        assert board.get("shard.completed_chunks", 0) >= 1
        assert board.get("shard.sites", 0) == len(sites)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardPlaneConfig(shards=0)
        with pytest.raises(ValueError):
            ShardPlaneConfig(region_span=0)
        with pytest.raises(ValueError):
            ShardPlane(EngineConfig(), shards=3,
                       plane=ShardPlaneConfig(shards=2))

    def test_occupancy_reported(self):
        sites = _sites(8, seed=7)
        with ShardPlane(EngineConfig(batch=2), shards=2) as plane:
            plane.run_sites(sites)
            occupancy = plane.occupancy()
        assert occupancy
        assert all(0.0 <= v <= 1.0 for v in occupancy.values())

    def test_stream_sites_yields_input_order(self):
        """The loop sees home-major order; no caller ever does."""
        sites = _sites(10, seed=9)
        homes = [shard_for(s.chrom, s.start, 2) for s in sites]
        assert homes != sorted(homes), "fixture homes must interleave"
        want = Engine(EngineConfig(batch=2)).run_sites(sites)
        with ShardPlane(EngineConfig(batch=2), shards=2) as plane:
            _assert_identical(list(plane.stream_sites(sites)), want)

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
            assert plane.occupancy() == {}
            assert set(plane.recovery_counters) == {"shard.cache_hits",
                                                    "shard.cache_misses"}

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

    def test_repro_shards_env_routes_default_path(self, monkeypatch):
        from repro.genomics.simulate import simulate_sample
        from repro.realign.realigner import IndelRealigner

        sample = simulate_sample({"chrS": 4_000}, seed=12)
        serial, _ = IndelRealigner(sample.reference).realign(sample.reads)
        monkeypatch.setenv("REPRO_SHARDS", "2")
        realigner = IndelRealigner(sample.reference)
        sharded, _ = realigner.realign(sample.reads)
        engine = realigner._engine_instance()
        assert isinstance(engine, ShardPlane)
        engine.close()
        assert [(r.name, r.pos, str(r.cigar)) for r in sharded] == \
               [(r.name, r.pos, str(r.cigar)) for r in serial]


    @pytest.mark.parametrize("value", ["abc", "0", "2.5"])
    def test_repro_shards_env_rejects_bad_values(self, monkeypatch, value):
        from repro.genomics.simulate import simulate_sample
        from repro.realign.realigner import IndelRealigner

        sample = simulate_sample({"chrS": 2_000}, seed=12)
        monkeypatch.setenv("REPRO_SHARDS", value)
        with pytest.raises(ValueError, match=f"REPRO_SHARDS='{value}'"):
            IndelRealigner(sample.reference).realign([])


class TestServingIntegration:
    def test_snapshot_surfaces_cache_and_shards(self):
        import asyncio

        from repro.serve.service import RealignmentService

        async def run():
            cache = SiteResultCache.from_megabytes(16)
            plane = ShardPlane(EngineConfig(batch=4), shards=2, cache=cache)
            service = RealignmentService(plane)
            await service.start()
            try:
                sites = _sites(6, seed=8)
                await service.submit_sites(sites)
                await service.submit_sites(sites)  # warm pass
                return service.snapshot()
            finally:
                await service.close()
                plane.close()

        snapshot = asyncio.run(run())
        as_dict = snapshot.as_dict()
        assert snapshot.counters["cache.hits"] > 0
        assert snapshot.cache_hit_rate > 0.0
        assert as_dict["cache_hit_rate"] == snapshot.cache_hit_rate
        assert "shard_saturation" in as_dict
        assert "cache" in snapshot.describe()


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
