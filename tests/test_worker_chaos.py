"""Chaos property tests for the fault-tolerant host data plane.

The single invariant: for *any* workload and *any* seeded schedule of
unit faults -- delay, error -- both engines terminate
and produce output byte-identical to a fault-free serial run, with the
recovery machinery's work bounded (retries cannot exceed what the
retry policy plus bisection permit). Hypothesis drives the seeds; the
fault plan's keyed-generator design makes every failing example
replayable verbatim.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig
from repro.resilience.workers import WorkerFaultPlan, WorkerRecovery
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
                            complexity=0.25 + 0.2 * (i % 4))
            for i in range(n)
        ]
    return _SITE_CACHE[key]


def _recovery(chaos_seed, rate):
    return WorkerRecovery(
        plan=WorkerFaultPlan.chaos(chaos_seed, rate, **_PLAN_OVERRIDES),
    )


def _retry_bound(n_sites, batch):
    """Most dispatches any run can make before every chunk is either
    delivered or fully quarantined: each of the ``ceil(n/batch)``
    chunks may exhaust its attempt budget, bisect down to single
    sites (a binary tree with ``<= 2 * batch`` nodes), and exhaust
    each node's budget again."""
    chunks = -(-n_sites // batch)
    attempts = WorkerRecovery().retry.max_attempts
    return chunks * 2 * max(2, 2 * batch) * attempts


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.same_outputs(b)
        np.testing.assert_array_equal(a.min_whd, b.min_whd)
        np.testing.assert_array_equal(a.new_pos, b.new_pos)


class TestWorkerChaosProperties:
    @given(
        workload_seed=st.integers(0, 10_000),
        chaos_seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        batch=st.integers(1, 3),
        rate=st.floats(0.05, 0.5),
    )
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_barrier_chaos_matches_serial(
        self, workload_seed, chaos_seed, n, batch, rate
    ):
        sites = _sites(n, workload_seed)
        want = Engine(EngineConfig(workers=1, batch=batch)).run_sites(sites)
        # A window of n chunks per worker holds every chunk.
        with Engine(EngineConfig(workers=2, batch=batch), queue_depth=n,
                    recovery=_recovery(chaos_seed, rate)) as engine:
            _assert_identical(engine.run_sites(sites), want)
            counters = engine.recovery_counters
        dispatches = counters.get("worker.retries", 0)
        assert dispatches <= _retry_bound(n, batch)

    @given(
        workload_seed=st.integers(0, 10_000),
        chaos_seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        batch=st.integers(1, 3),
        depth=st.integers(1, 3),
        rate=st.floats(0.05, 0.5),
    )
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_streaming_chaos_matches_serial(
        self, workload_seed, chaos_seed, n, batch, depth, rate
    ):
        sites = _sites(n, workload_seed)
        want = Engine(EngineConfig(workers=1, batch=batch)).run_sites(sites)
        with Engine(EngineConfig(workers=2, batch=batch),
                    queue_depth=depth,
                    recovery=_recovery(chaos_seed, rate)) as stream:
            _assert_identical(stream.run_sites(sites), want)
            counters = stream.recovery_counters
        dispatches = counters.get("worker.retries", 0)
        assert dispatches <= _retry_bound(n, batch)

    @given(chaos_seed=st.integers(0, 10_000), rate=st.floats(0.1, 0.6))
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stream_and_barrier_agree_under_same_chaos(
        self, chaos_seed, rate
    ):
        """A window of one chunk per worker and a window that holds
        every chunk (the barrier) submit in different orders but must
        converge on the same results for the same fault plan."""
        sites = _sites(6, seed=4242)
        with Engine(EngineConfig(workers=2, batch=2), queue_depth=2,
                    recovery=_recovery(chaos_seed, rate)) as barrier:
            barrier_got = barrier.run_sites(sites)
        with Engine(EngineConfig(workers=2, batch=2), queue_depth=1,
                    recovery=_recovery(chaos_seed, rate)) as stream:
            stream_got = stream.run_sites(sites)
        _assert_identical(stream_got, barrier_got)
