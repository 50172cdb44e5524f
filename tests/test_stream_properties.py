"""Property tests for the engine's pooled dispatch (hypothesis).

The invariant under test is single: the engine's output is
byte-identical to the serial kernel's for *any* site set, worker count
or chunk size -- from one site per chunk up to one chunk that holds
every site (the barrier).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig, dispatch_realign
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def _sites(n, seed):
    rng = np.random.default_rng(seed)
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=0.25 + 0.2 * (i % 4))
        for i in range(n)
    ]


class TestStreamingEngineProperties:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        batch=st.integers(1, 9),
        workers=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_barrier_for_any_configuration(
        self, seed, n, batch, workers
    ):
        sites = _sites(n, seed)
        want = [dispatch_realign(site) for site in sites]
        with Engine(EngineConfig(workers=workers, batch=batch)) as engine:
            got = engine.run_sites(sites)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.same_outputs(b)
            np.testing.assert_array_equal(a.min_whd, b.min_whd)
            np.testing.assert_array_equal(a.new_pos, b.new_pos)
