"""Chaos property tests for the pooled engine behind a site cache.

The single invariant, mirroring ``test_worker_chaos.py`` with a cache
in front: for *any* workload, *any* worker count and chunk size, cache
on or off, and *any* seeded schedule of unit faults -- delay, error --
the run terminates and produces output byte-identical to a fault-free
serial run, with re-dispatch work bounded (the pool's
retry -> bisect -> inline-quarantine ladder, exactly as
``test_worker_chaos._retry_bound`` states it). Hypothesis drives the
seeds; the fault plan's keyed-generator design makes every failing
example replayable.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig
from repro.resilience.workers import WorkerFaultPlan, WorkerRecovery
from repro.shard import SiteResultCache
from repro.telemetry.spans import Telemetry
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

#: Short delays keep a drawn DELAY cheap without changing what it tests.
_PLAN_OVERRIDES = {"delay_range": (0.001, 0.01)}

_SITE_CACHE = {}


def _sites(n, seed):
    key = (n, seed)
    if key not in _SITE_CACHE:
        rng = np.random.default_rng(seed)
        _SITE_CACHE[key] = [
            synthesize_site(rng, BENCH_PROFILE,
                            complexity=0.25 + 0.2 * (i % 4),
                            start=int(rng.integers(0, 64)) * 4096)
            for i in range(n)
        ]
    return _SITE_CACHE[key]


def _recovery(chaos_seed, rate):
    return WorkerRecovery(
        plan=WorkerFaultPlan.chaos(chaos_seed, rate, **_PLAN_OVERRIDES),
    )


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.same_outputs(b)
        np.testing.assert_array_equal(a.min_whd, b.min_whd)
        np.testing.assert_array_equal(a.new_pos, b.new_pos)


class TestShardChaosProperties:
    @given(
        workload_seed=st.integers(0, 10_000),
        n=st.integers(2, 10),
        workers=st.integers(1, 4),
        batch=st.integers(1, 3),
        cached=st.booleans(),
    )
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_partition_matches_serial(
        self, workload_seed, n, workers, batch, cached
    ):
        """Fault-free: any worker count x any chunk size, with or
        without a cache (cold, then warm), merges to the serial answer,
        byte for byte."""
        sites = _sites(n, workload_seed)
        want = Engine(EngineConfig(workers=1, batch=batch)).run_sites(sites)
        cache = SiteResultCache.from_megabytes(32) if cached else None
        with Engine(EngineConfig(workers=workers, batch=batch),
                    cache=cache) as engine:
            _assert_identical(engine.run_sites(sites), want)
            _assert_identical(engine.run_sites(sites), want)

    @given(
        workload_seed=st.integers(0, 10_000),
        chaos_seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        workers=st.integers(2, 3),
        batch=st.integers(1, 3),
        rate=st.floats(0.05, 0.5),
    )
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_shard_chaos_matches_serial_with_bounded_redispatch(
        self, workload_seed, chaos_seed, n, workers, batch, rate
    ):
        sites = _sites(n, workload_seed)
        want = Engine(EngineConfig(workers=1, batch=batch)).run_sites(sites)
        telemetry = Telemetry()
        with Engine(EngineConfig(workers=workers, batch=batch),
                    recovery=_recovery(chaos_seed, rate)) as engine:
            _assert_identical(engine.run_sites(sites, telemetry=telemetry),
                              want)
            counters = dict(engine.recovery_counters)
        # Re-dispatch work is bounded as on any pooled engine: each
        # chunk may exhaust its attempt budget, bisect down to single
        # sites (<= 2 * batch tree nodes) and exhaust each node's
        # budget again; and each chunk completes exactly once.
        board = telemetry.counters.scalars
        chunks = board.get("engine.shards", 0)
        assert chunks >= 1
        dispatches = counters.get("worker.retries", 0)
        assert dispatches <= (chunks * 2 * max(2, 2 * batch)
                              * WorkerRecovery().retry.max_attempts)
        assert board.get("engine.shard_sites", 0) == n

    @given(
        chaos_seed=st.integers(0, 10_000),
        rate=st.floats(0.1, 0.6),
    )
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_chaos_with_cache_stays_identical(self, chaos_seed, rate):
        """Cold pass under chaos, warm pass under the same chaos plan:
        both byte-identical to serial, and the warm pass never
        re-dispatches what the cache already holds."""
        sites = _sites(6, seed=4242)
        want = Engine(EngineConfig(workers=1, batch=2)).run_sites(sites)
        cache = SiteResultCache.from_megabytes(32)
        with Engine(EngineConfig(workers=2, batch=2), cache=cache,
                    recovery=_recovery(chaos_seed, rate)) as engine:
            _assert_identical(engine.run_sites(sites), want)
            _assert_identical(engine.run_sites(sites), want)
            assert engine.shard_stats == []
            assert engine.recovery_counters == {}
        assert cache.hits == len(sites)

    @given(chaos_seed=st.integers(0, 10_000))
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_total_shard_loss_drains_inline(self, chaos_seed):
        """Units that always fail leave quarantine to finish the run --
        forward progress never depends on an injected attempt
        succeeding: every site is quarantined to an uninjected run."""
        sites = _sites(4, seed=7)
        want = Engine(EngineConfig(workers=1, batch=2)).run_sites(sites)
        telemetry = Telemetry()
        always = WorkerRecovery(plan=WorkerFaultPlan(seed=chaos_seed,
                                                     error_rate=1.0))
        with Engine(EngineConfig(workers=2, batch=2),
                    recovery=always) as engine:
            _assert_identical(engine.run_sites(sites, telemetry=telemetry),
                              want)
            counters = engine.recovery_counters
        assert counters["worker.quarantined_sites"] == len(sites)
        assert telemetry.counters.scalars.get("engine.shards", 0) >= 1
