"""Streaming vs barrier engine: the peak-memory gate.

One site pool (``REPRO_BENCH_SITES`` sites, default 96) runs through
the barrier ``Engine`` and the ``StreamingEngine`` on the default
kernel at the same worker count:

- barrier -- ``Engine.run_sites`` at 4 workers: submit all, block,
  merge; peak memory holds every chunk's payload and results at once;
- stream  -- ``StreamingEngine.stream_sites`` at 4 workers, queue
  depth 1: bounded in-flight window, incremental in-order merge, each
  result consumed and dropped as it is yielded.

``test_stream_gate`` is the CI acceptance gate and states the one claim
the window makes: byte-identical results, and strictly less peak
traced heap than the barrier at 48+ sites (the CI smoke scale).
Memory is measured with ``tracemalloc``, which sees the whole payload:
every chunk is pickled from the parent's heap. Pooled throughput is
not gated here -- that is ``bench_engine.py``'s gate and the e2e
``engine.pool_w2.*`` / ``engine.stream_w2.*`` probes' report.
"""

import tracemalloc

import numpy as np

from repro.engine import Engine, EngineConfig, StreamingEngine
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

from conftest import bench_sites

POOL_WORKERS = 4
POOL_BATCH = 4
QUEUE_DEPTH = 1
COMPLEXITIES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
GATE_RUNS = 3


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


def _peak_traced_bytes(func, runs=GATE_RUNS):
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
    """CI acceptance gate: identical results, strictly lower peak
    memory than the barrier engine at the CI smoke scale."""
    sites = _site_pool()
    config = EngineConfig(workers=POOL_WORKERS, batch=POOL_BATCH)
    with Engine(config) as barrier, StreamingEngine(
        config, queue_depth=QUEUE_DEPTH
    ) as stream:
        # Warm both pools and pin byte-identity before measuring.
        want = barrier.run_sites(sites)
        got = stream.run_sites(sites)
        for a, b in zip(got, want):
            assert a.same_outputs(b)
        del got, want

        barrier_peak = _peak_traced_bytes(lambda: barrier.run_sites(sites))
        stream_peak = _peak_traced_bytes(
            lambda: _consume_stream(stream, sites))

    print(f"\nstream vs barrier at {len(sites)} sites, "
          f"{POOL_WORKERS} workers, kernel {config.kernel}:")
    print(f"  peak heap   barrier {barrier_peak / 1024:7.0f} KiB  "
          f"stream {stream_peak / 1024:7.0f} KiB  "
          f"({barrier_peak / max(stream_peak, 1):.2f}x)")

    if len(sites) >= 48:
        assert stream_peak < barrier_peak, (
            f"streaming engine peak heap not below barrier: "
            f"{stream_peak} >= {barrier_peak} bytes at {len(sites)} sites"
        )
