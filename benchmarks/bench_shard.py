"""Cross-request site-cache benchmarks.

One site pool (``REPRO_BENCH_SITES`` sites, default 96) becomes a
duplicate-heavy request sequence (85% of requests drawn from a hot
eighth of the pool, mirroring the ``duplicate_heavy`` serving
schedule) and runs through ``Engine(cache=)`` against a cold
(``site_cache_cold``) vs. a fully warm (``site_cache_warm``)
``SiteResultCache``.

``test_cache_gate`` is the CI acceptance gate, in two parts:

1. **Byte-identity** -- the cold pass and the warm replay both match
   the cache-less engine exactly.
2. **Warm cache >= ``WARM_SPEEDUP``x over cold** on the
   duplicate-heavy sequence -- real wall-clock, best-of-``GATE_RUNS``
   (the cache is cleared before every cold round), single-core safe
   because a warm pass is pure content hashing.

Pooled throughput is ``bench_engine.py``'s gate: the cache sits in
front of the same dispatch loop at any ``workers``. No numbers are
committed for this module (nothing read them).
"""

import time

import numpy as np

from repro.engine import Engine, EngineConfig
from repro.shard import SiteResultCache
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

from conftest import bench_sites

COMPLEXITIES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

#: Sites per chunk -- the engine's dispatch unit.
CHUNK_SITES = 4

#: Duplicate-heavy regime, mirroring workloads.serving duplicate_heavy:
#: this fraction of requests re-hit a hot eighth of the pool.
HOT_FRACTION = 0.85

GATE_RUNS = 3
#: Warm-cache pass must beat the cold pass by this factor.
WARM_SPEEDUP = 3.0


def _engine_config():
    return EngineConfig(batch=CHUNK_SITES)


def _site_pool():
    rng = np.random.default_rng(2019)
    n = bench_sites()
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=COMPLEXITIES[i % len(COMPLEXITIES)],
                        start=i * 16_384)
        for i in range(n)
    ]


def _duplicate_heavy(sites):
    """Request sequence with an 85%-hot duplicate regime."""
    rng = np.random.default_rng(7)
    hot = sites[:max(1, len(sites) // 8)]
    return [
        hot[int(rng.integers(0, len(hot)))]
        if rng.random() < HOT_FRACTION else sites[i]
        for i in range(len(sites))
    ]


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.same_outputs(b)
        np.testing.assert_array_equal(a.min_whd, b.min_whd)
        np.testing.assert_array_equal(a.new_pos, b.new_pos)


def _best_of(runs, func):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_site_cache_cold(once, benchmark):
    sequence = _duplicate_heavy(_site_pool())
    cache = SiteResultCache.from_megabytes(64)
    with Engine(_engine_config(), cache=cache) as engine:

        def cold():
            cache.clear()
            return engine.run_sites(sequence)

        results = once(cold)
    benchmark.extra_info["cache"] = "cold (cleared before the pass)"
    assert len(results) == len(sequence)


def test_site_cache_warm(once, benchmark):
    sequence = _duplicate_heavy(_site_pool())
    cache = SiteResultCache.from_megabytes(64)
    with Engine(_engine_config(), cache=cache) as engine:
        engine.run_sites(sequence)  # prime the cache off the clock
        hits = cache.hits
        results = once(engine.run_sites, sequence)
    benchmark.extra_info["cache"] = "warm (every site served from cache)"
    assert len(results) == len(sequence)
    assert cache.hits - hits == len(sequence)


def test_cache_gate():
    """CI acceptance gate: the cached engine is exact cold and warm,
    and the warm pass earns its keep on the duplicate-heavy regime.

    A live relative comparison -- the ratio divides two quantities
    measured in this process on this pool, so host speed drops out
    (docs/SHARDING.md)."""
    sequence = _duplicate_heavy(_site_pool())
    with Engine(_engine_config()) as plain:
        want = plain.run_sites(sequence)

    cache = SiteResultCache.from_megabytes(64)
    with Engine(_engine_config(), cache=cache) as engine:
        _assert_identical(engine.run_sites(sequence), want)  # cold
        _assert_identical(engine.run_sites(sequence), want)  # warm

        def cold():
            cache.clear()
            engine.run_sites(sequence)

        cold_time = _best_of(GATE_RUNS, cold)
        engine.run_sites(sequence)  # re-prime after the last clear
        warm_time = _best_of(GATE_RUNS, lambda: engine.run_sites(sequence))
        hit_rate = cache.hit_rate

    print(f"\nsite cache at {len(sequence)} duplicate-heavy requests:")
    print(f"  cold {cold_time * 1e3:7.1f} ms   "
          f"warm {warm_time * 1e3:7.1f} ms   "
          f"({cold_time / warm_time:.1f}x, {hit_rate:.1%} hit rate)")

    assert warm_time * WARM_SPEEDUP <= cold_time, (
        f"warm cache below {WARM_SPEEDUP}x over cold: warm "
        f"{warm_time:.4f}s vs cold {cold_time:.4f}s on the "
        f"duplicate-heavy sequence"
    )
