"""Property tests for the pooled engine behind a site cache.

The single invariant: for *any* workload, *any* worker count and chunk
size, cache on or off, cold or warm, the run produces output
byte-identical to a serial run.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, EngineConfig
from repro.shard import SiteResultCache
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

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
        """Any worker count x any chunk size, with or without a cache
        (cold, then warm), merges to the serial answer, byte for byte."""
        sites = _sites(n, workload_seed)
        want = Engine(EngineConfig(workers=1, batch=batch)).run_sites(sites)
        cache = SiteResultCache.from_megabytes(32) if cached else None
        with Engine(EngineConfig(workers=workers, batch=batch),
                    cache=cache) as engine:
            _assert_identical(engine.run_sites(sites), want)
            _assert_identical(engine.run_sites(sites), want)
