"""Streaming vs barrier engine: throughput and peak-memory benchmarks.

One site pool (``REPRO_BENCH_SITES`` sites, default 96) runs through
the barrier ``Engine`` and the ``StreamingEngine`` at the same worker
count:

- ``barrier_pool``  -- ``Engine.run_sites`` at 4 workers: submit all,
  block, merge; peak memory holds every chunk's results at once;
- ``stream_pool``   -- ``StreamingEngine.stream_sites`` at 4 workers,
  queue depth 1: bounded in-flight window, incremental in-order merge,
  each result consumed and dropped as it is yielded.

``test_stream_gate`` is the CI acceptance gate: the streaming plane
must not regress throughput against the barrier engine and must hold
strictly less peak traced-heap at 48+ sites (the committed smoke
scale). Memory is measured with ``tracemalloc`` -- heap allocations
only, so the conservative ``use_shmem=False`` transport is gated (its
payload buffers live on the traced heap; shared-memory arenas would
only lower what the tracer sees). Refresh the committed numbers with:

    PYTHONPATH=src REPRO_BENCH_SITES=48 python -m pytest \
        benchmarks/bench_stream.py --benchmark-json=benchmarks/BENCH_stream.json
"""

import time
import tracemalloc

import numpy as np

from repro.engine import Engine, EngineConfig, StreamingEngine
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

from conftest import bench_sites

POOL_WORKERS = 4
POOL_BATCH = 4
QUEUE_DEPTH = 1
#: Kernel pinned so the committed baseline keeps measuring the
#: FFT-batched plane; kernel routing is benched in bench_kernels.py.
POOL_KERNEL = "fft"
COMPLEXITIES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

#: Throughput-gate tolerance: the streaming plane must finish within
#: this factor of the barrier engine's best time. The two planes run
#: the identical kernel over identical chunks; the margin only absorbs
#: scheduler/timer noise on loaded CI hosts, not a real regression --
#: at the 48-site smoke scale a single run is ~100 ms, where shared
#: runners routinely jitter by 10%+, so the gate combines best-of-N
#: sampling (noise only ever slows a run down, so the minimum
#: converges on the true cost) with this allowance on top.
GATE_RUNS = 3
THROUGHPUT_TOLERANCE = 1.10


def _site_pool():
    rng = np.random.default_rng(2019)
    n = bench_sites()
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=COMPLEXITIES[i % len(COMPLEXITIES)])
        for i in range(n)
    ]


def _consume_stream(engine, sites):
    """Drain the stream without holding results -- the streaming
    consumer shape (each result inspected, then dropped)."""
    realigned = 0
    for result in engine.stream_sites(sites):
        realigned += result.num_realigned
    return realigned


def test_stream_barrier_pool(benchmark):
    sites = _site_pool()
    with Engine(EngineConfig(workers=POOL_WORKERS, batch=POOL_BATCH,
                             kernel=POOL_KERNEL)) as eng:
        eng.run_sites(sites[: POOL_BATCH * POOL_WORKERS])  # warm the pool
        results = benchmark(eng.run_sites, sites)
    assert len(results) == len(sites)


def test_stream_streaming_pool(benchmark):
    sites = _site_pool()
    with StreamingEngine(
        EngineConfig(workers=POOL_WORKERS, batch=POOL_BATCH,
                     kernel=POOL_KERNEL),
        queue_depth=QUEUE_DEPTH,
    ) as eng:
        eng.run_sites(sites[: POOL_BATCH * POOL_WORKERS])  # warm the pool
        realigned = benchmark(_consume_stream, eng, sites)
    assert realigned >= 0
    assert eng.stream_stats["stream.chunks"] > 0


def _best_of(runs, func):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_traced_bytes(func, runs=1):
    """Minimum peak traced-heap over ``runs`` executions of ``func``.

    A single run's peak can be inflated by incidental allocations
    (pool pickling buffers still queued, GC timing), so the gate takes
    the best of N: transient noise only ever raises a peak, never
    lowers it, so the minimum is the stable per-plane floor.
    """
    best = float("inf")
    for _ in range(runs):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            func()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        best = min(best, peak)
    return best


def test_stream_gate():
    """CI acceptance gate: no throughput regression, strictly lower
    peak memory than the barrier engine at the committed smoke scale.

    Both comparisons are best-of-``GATE_RUNS`` with a documented
    timing allowance (``THROUGHPUT_TOLERANCE``) so a single noisy
    sample on a loaded shared runner cannot block unrelated PRs."""
    sites = _site_pool()
    config = EngineConfig(workers=POOL_WORKERS, batch=POOL_BATCH,
                          kernel=POOL_KERNEL)
    with Engine(config) as barrier, StreamingEngine(
        config, queue_depth=QUEUE_DEPTH, use_shmem=False
    ) as stream:
        # Warm both pools and pin byte-identity once, before timing.
        want = barrier.run_sites(sites)
        got = stream.run_sites(sites)
        for a, b in zip(got, want):
            assert a.same_outputs(b)
        del got, want

        barrier_time = _best_of(GATE_RUNS, lambda: barrier.run_sites(sites))
        stream_time = _best_of(GATE_RUNS,
                               lambda: _consume_stream(stream, sites))
        barrier_peak = _peak_traced_bytes(
            lambda: barrier.run_sites(sites), runs=GATE_RUNS
        )
        stream_peak = _peak_traced_bytes(
            lambda: _consume_stream(stream, sites), runs=GATE_RUNS
        )

    print(f"\nstream vs barrier at {len(sites)} sites, "
          f"{POOL_WORKERS} workers:")
    print(f"  wall-clock  barrier {barrier_time * 1e3:7.1f} ms   "
          f"stream {stream_time * 1e3:7.1f} ms   "
          f"({barrier_time / stream_time:.2f}x)")
    print(f"  peak heap   barrier {barrier_peak / 1024:7.0f} KiB  "
          f"stream {stream_peak / 1024:7.0f} KiB  "
          f"({barrier_peak / max(stream_peak, 1):.2f}x)")

    assert stream_time <= barrier_time * THROUGHPUT_TOLERANCE, (
        f"streaming engine regressed throughput: {stream_time:.3f}s vs "
        f"barrier {barrier_time:.3f}s over {len(sites)} sites"
    )
    if len(sites) >= 48:
        assert stream_peak < barrier_peak, (
            f"streaming engine peak heap not below barrier: "
            f"{stream_peak} >= {barrier_peak} bytes at {len(sites)} sites"
        )
