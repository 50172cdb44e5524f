"""Execution-engine benchmarks: serial kernel vs batched vs the thread pool.

One site pool (``REPRO_BENCH_SITES`` sites, default 96) is realigned
four ways:

- ``serial``    -- the vectorized per-site kernel (``vector``), the
  baseline every speedup in docs/PERFORMANCE.md is quoted against;
- ``batched``   -- the FFT-batched kernel (``fft``) with the
  pre-alignment filter, in-process (workers=1);
- ``no_prefilter`` -- the batched grid function with its filter off,
  isolating how much of the win is the filter vs the tensorized
  evaluation;
- ``thread_pool``  -- the full Engine at 4 unit threads on its default
  kernel (``auto``, the compiled tier), warmed in setup, so the
  measurement sees steady-state dispatch, not the first call's
  one-time costs (the C library build among them).

``test_batched_beats_serial_throughput`` turns the headline claim into
an assertion so CI fails if the engine regresses below the serial path.
Refresh the committed numbers with:

    PYTHONPATH=src REPRO_BENCH_SITES=48 python -m pytest \
        benchmarks/bench_engine.py --benchmark-json=benchmarks/BENCH_engine.json
"""

import time

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig, dispatch_realign
from repro.engine.batch import min_whd_grid_batched
from repro.realign.whd import select_and_realign
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

from conftest import bench_sites

POOL_WORKERS = 4
POOL_BATCH = 12
COMPLEXITIES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def _site_pool():
    rng = np.random.default_rng(2019)
    n = bench_sites()
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=COMPLEXITIES[i % len(COMPLEXITIES)])
        for i in range(n)
    ]


def _serial(sites):
    return [dispatch_realign(site, kernel="vector") for site in sites]


def _batched(sites):
    return [dispatch_realign(site, kernel="fft") for site in sites]


def test_engine_serial_baseline(benchmark):
    sites = _site_pool()
    results = benchmark(_serial, sites)
    assert len(results) == len(sites)


def test_engine_batched_inprocess(benchmark):
    sites = _site_pool()
    results = benchmark(_batched, sites)
    for got, want in zip(results, _serial(sites)):
        assert got.same_outputs(want)


def test_engine_batched_no_prefilter(benchmark):
    sites = _site_pool()
    results = benchmark(
        lambda: [select_and_realign(
            s, *min_whd_grid_batched(s, prefilter=False)) for s in sites]
    )
    assert len(results) == len(sites)


def test_engine_thread_pool(benchmark):
    sites = _site_pool()
    with Engine(EngineConfig(workers=POOL_WORKERS,
                             batch=POOL_BATCH)) as eng:
        eng.run_sites(sites[: POOL_BATCH * POOL_WORKERS])  # warm the pool
        results = benchmark(eng.run_sites, sites)
    for got, want in zip(results, _serial(sites)):
        assert got.same_outputs(want)


def test_batched_beats_serial_throughput():
    """The engine acceptance gate: batched must out-run serial on the
    same pool. Timed with perf_counter inside one test so the ratio is
    apples-to-apples regardless of pytest-benchmark calibration."""
    sites = _site_pool()
    _serial(sites)  # touch caches for both contenders
    _batched(sites)

    start = time.perf_counter()
    serial = _serial(sites)
    serial_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    batched = _batched(sites)
    batched_elapsed = time.perf_counter() - start

    for got, want in zip(batched, serial):
        assert got.same_outputs(want)
    assert batched_elapsed < serial_elapsed, (
        f"batched engine slower than serial: {batched_elapsed:.3f}s vs "
        f"{serial_elapsed:.3f}s over {len(sites)} sites"
    )
    print(f"\nbatched speedup over serial at {len(sites)} sites: "
          f"{serial_elapsed / batched_elapsed:.2f}x")
