"""Shard-plane scaling and cross-request cache benchmarks.

One site pool (``REPRO_BENCH_SITES`` sites, default 96, spread over
distinct region buckets so the partition function actually shards it)
runs through three planes:

- ``shard_plane_inline``    -- ``ShardPlane(shards=1)``: the exact
  inline path, no worker processes; the single-shard baseline;
- ``shard_plane_processes`` -- ``ShardPlane(shards=4)``: the
  engines' worker pool at four workers under the region-hash chunk
  plan (skipped on hosts with fewer than 4 cores, where process
  scaling is not measurable);
- ``shard_cache_cold`` / ``shard_cache_warm`` -- a duplicate-heavy
  request sequence (85% of requests drawn from a hot eighth of the
  pool, mirroring the ``duplicate_heavy`` serving schedule) against a
  cold vs. a fully warm ``SiteResultCache``.

``test_shard_gate`` is the CI acceptance gate, in three parts:

1. **Byte-identity** -- inline plane, 4-shard plane, and warm-cache
   replay all match the serial engine exactly.
2. **Shard scaling >= ``MODEL_SCALING_FLOOR``x at 4 shards.** The
   per-chunk kernel times are *measured* (best-of-``GATE_RUNS`` per
   chunk, serial, in-process) and then replayed through the pool's
   schedule in virtual time: an idle worker always
   takes the next pending chunk, so the modeled makespan at N shards
   is the classic least-loaded list schedule. The ratio
   ``makespan(1) / makespan(4)`` is machine-independent -- it divides
   out host speed entirely -- which lets the gate run on any builder,
   including single-core ones where real process scaling is
   physically impossible. On hosts with >= 4 cores the gate *also*
   times the real 4-shard plane against the single-shard plane
   (best-of-``GATE_RUNS`` each) and holds the measured wall-clock
   ratio to ``REAL_SCALING_FLOOR``x.
3. **Warm cache >= ``WARM_SPEEDUP``x over cold** on the
   duplicate-heavy sequence -- real wall-clock, best-of-``GATE_RUNS``
   (the cache is cleared before every cold round), single-core safe
   because a warm pass is pure content hashing.

No numbers are committed for this module (nothing read them). Under
``--benchmark-json`` the ``shard_scaling_model`` entry carries the
modeled makespans in ``extra_info``; the cold/warm entries carry the
cache speedup directly in their stats.
"""

import os
import time

import numpy as np

from repro.engine import Engine, EngineConfig
from repro.shard import DEFAULT_REGION_SPAN, ShardPlane, SiteResultCache
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

from conftest import bench_sites

#: Kernel pinned so this module keeps measuring the same plane as
#: BENCH_serve.json; kernel routing is benched elsewhere.
POOL_KERNEL = "fft"
COMPLEXITIES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

#: Sites per shard chunk -- the plane's dispatch unit. Small enough
#: that a 48-site smoke pool still yields 12 chunks to schedule.
CHUNK_SITES = 4

#: Duplicate-heavy regime, mirroring workloads.serving duplicate_heavy:
#: this fraction of requests re-hit a hot eighth of the pool.
HOT_FRACTION = 0.85

GATE_RUNS = 3
GATE_SHARDS = 4
#: Modeled makespan ratio at 4 shards (measured chunk times replayed
#: through the pool's schedule) must reach this floor.
MODEL_SCALING_FLOOR = 2.0
#: Real wall-clock ratio at 4 shards, gated only on hosts with >= 4
#: cores (CI runners qualify).
REAL_SCALING_FLOOR = 2.0
#: Warm-cache pass must beat the cold pass by this factor.
WARM_SPEEDUP = 3.0


def _engine_config():
    return EngineConfig(kernel=POOL_KERNEL, batch=CHUNK_SITES)


def _site_pool():
    rng = np.random.default_rng(2019)
    n = bench_sites()
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=COMPLEXITIES[i % len(COMPLEXITIES)],
                        start=i * 4 * DEFAULT_REGION_SPAN)
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


def _chunk_durations(sites, runs=GATE_RUNS):
    """Measured serial kernel time per dispatch-sized chunk (best-of)."""
    chunks = [sites[i:i + CHUNK_SITES]
              for i in range(0, len(sites), CHUNK_SITES)]
    with Engine(_engine_config()) as engine:
        engine.run_sites(chunks[0])  # warm dispatch tables once
        return [
            _best_of(runs, lambda chunk=chunk: engine.run_sites(chunk))
            for chunk in chunks
        ]


def _greedy_makespan(durations, shards):
    """Least-loaded list schedule -- the virtual-time equivalent of the
    pool's dispatch (one chunk per worker, an idle worker takes
    whatever is pending next)."""
    loads = [0.0] * shards
    for duration in durations:
        loads[loads.index(min(loads))] += duration
    return max(loads)


def test_shard_plane_inline(benchmark):
    sites = _site_pool()
    with ShardPlane(_engine_config(), shards=1) as plane:
        results = benchmark(plane.run_sites, sites)
    assert len(results) == len(sites)


def test_shard_plane_processes(once, benchmark):
    if (os.cpu_count() or 1) < GATE_SHARDS:
        import pytest
        pytest.skip(f"needs >= {GATE_SHARDS} cores for process scaling")
    sites = _site_pool()
    with ShardPlane(_engine_config(), shards=GATE_SHARDS) as plane:
        plane.run_sites(sites)  # spawn + warm the workers off the clock
        results = once(plane.run_sites, sites)
        benchmark.extra_info["occupancy"] = plane.occupancy()
    assert len(results) == len(sites)


def test_shard_scaling_model(once, benchmark):
    """Measured chunk times replayed through the pool's schedule; the
    modeled makespans land in the benchmark JSON's extra_info."""
    sites = _site_pool()
    durations = once(_chunk_durations, sites)
    makespan_1 = sum(durations)
    makespan_n = _greedy_makespan(durations, GATE_SHARDS)
    benchmark.extra_info["chunks"] = len(durations)
    benchmark.extra_info["makespan_1_ms"] = round(makespan_1 * 1e3, 3)
    benchmark.extra_info[f"makespan_{GATE_SHARDS}_ms"] = round(
        makespan_n * 1e3, 3)
    benchmark.extra_info[f"modeled_speedup_{GATE_SHARDS}"] = round(
        makespan_1 / makespan_n, 3)
    assert makespan_1 / makespan_n >= MODEL_SCALING_FLOOR


def test_shard_cache_cold(once, benchmark):
    sites = _site_pool()
    sequence = _duplicate_heavy(sites)
    cache = SiteResultCache.from_megabytes(64)
    with ShardPlane(_engine_config(), shards=1, cache=cache) as plane:

        def cold():
            cache.clear()
            return plane.run_sites(sequence)

        results = once(cold)
    benchmark.extra_info["cache"] = "cold (cleared before the pass)"
    assert len(results) == len(sequence)


def test_shard_cache_warm(once, benchmark):
    sites = _site_pool()
    sequence = _duplicate_heavy(sites)
    cache = SiteResultCache.from_megabytes(64)
    with ShardPlane(_engine_config(), shards=1, cache=cache) as plane:
        plane.run_sites(sequence)  # prime the cache off the clock
        results = once(plane.run_sites, sequence)
        counters = dict(plane.recovery_counters)
    benchmark.extra_info["cache"] = "warm (every site served from cache)"
    assert len(results) == len(sequence)
    assert counters.get("shard.cache_hits", 0) == len(sequence)


def test_shard_gate():
    """CI acceptance gate: exact merge at every shard count and cache
    state, modeled (and, with enough cores, measured) shard scaling,
    and the warm-cache speedup on the duplicate-heavy regime.

    Live relative comparisons -- every ratio divides two quantities
    measured in this process on this pool, so host speed drops out
    (docs/SHARDING.md)."""
    sites = _site_pool()
    sequence = _duplicate_heavy(sites)
    cores = os.cpu_count() or 1

    with Engine(_engine_config()) as serial:
        want = serial.run_sites(sites)
        want_sequence = serial.run_sites(sequence)

    # Part 1a: byte-identity through the real 4-shard process plane.
    with ShardPlane(_engine_config(), shards=GATE_SHARDS) as plane:
        _assert_identical(plane.run_sites(sites), want)
        real_shard_time = None
        if cores >= GATE_SHARDS:
            real_shard_time = _best_of(
                GATE_RUNS, lambda: plane.run_sites(sites))

    # Part 2: modeled makespan ratio from measured chunk times.
    durations = _chunk_durations(sites)
    makespan_1 = sum(durations)
    makespan_n = _greedy_makespan(durations, GATE_SHARDS)
    model_speedup = makespan_1 / makespan_n

    # Part 1b + 3: identity and timing through the caching inline plane.
    cache = SiteResultCache.from_megabytes(64)
    with ShardPlane(_engine_config(), shards=1, cache=cache) as plane:
        cache.clear()
        _assert_identical(plane.run_sites(sequence), want_sequence)  # cold
        _assert_identical(plane.run_sites(sequence), want_sequence)  # warm

        def cold():
            cache.clear()
            plane.run_sites(sequence)

        cold_time = _best_of(GATE_RUNS, cold)
        plane.run_sites(sequence)  # re-prime after the last clear
        warm_time = _best_of(GATE_RUNS, lambda: plane.run_sites(sequence))
        hit_rate = cache.hit_rate

    inline_time = None
    if real_shard_time is not None:
        with ShardPlane(_engine_config(), shards=1) as plane:
            plane.run_sites(sites)
            inline_time = _best_of(GATE_RUNS, lambda: plane.run_sites(sites))

    print(f"\nshard plane at {len(sites)} sites, "
          f"{len(durations)} chunks of {CHUNK_SITES}:")
    print(f"  modeled makespan  1 shard {makespan_1 * 1e3:7.1f} ms   "
          f"{GATE_SHARDS} shards {makespan_n * 1e3:7.1f} ms   "
          f"({model_speedup:.2f}x)")
    if inline_time is not None:
        print(f"  measured wall     1 shard {inline_time * 1e3:7.1f} ms   "
              f"{GATE_SHARDS} shards {real_shard_time * 1e3:7.1f} ms   "
              f"({inline_time / real_shard_time:.2f}x)")
    else:
        print(f"  measured wall     skipped ({cores} cores < "
              f"{GATE_SHARDS} shards)")
    print(f"  duplicate-heavy   cold {cold_time * 1e3:7.1f} ms   "
          f"warm {warm_time * 1e3:7.1f} ms   "
          f"({cold_time / warm_time:.1f}x, {hit_rate:.1%} hit rate)")

    assert model_speedup >= MODEL_SCALING_FLOOR, (
        f"modeled shard scaling below {MODEL_SCALING_FLOOR}x at "
        f"{GATE_SHARDS} shards: {model_speedup:.2f}x over "
        f"{len(durations)} measured chunks"
    )
    if inline_time is not None:
        assert real_shard_time * REAL_SCALING_FLOOR <= inline_time, (
            f"measured shard scaling below {REAL_SCALING_FLOOR}x: "
            f"{GATE_SHARDS} shards {real_shard_time:.3f}s vs 1 shard "
            f"{inline_time:.3f}s"
        )
    assert warm_time * WARM_SPEEDUP <= cold_time, (
        f"warm cache below {WARM_SPEEDUP}x over cold: warm "
        f"{warm_time:.4f}s vs cold {cold_time:.4f}s on the "
        f"duplicate-heavy sequence"
    )
