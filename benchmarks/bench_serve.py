"""Request plane vs direct engine: serving-overhead benchmarks.

One site pool (``REPRO_BENCH_SITES`` sites, default 96) runs twice
over the same inline engine:

- ``serve_direct_engine``  -- one ``Engine.run_sites`` call: the
  batch-CLI cost of the workload, no request plane;
- ``serve_request_plane``  -- the same sites split into many
  concurrent jobs submitted through ``RealignmentService``: admission
  control, the coalescing batcher, executor dispatch, per-request
  latency accounting.

``test_serve_gate`` is the CI acceptance gate: the request plane's
wall-clock over the full pool must stay within ``SERVE_TOLERANCE`` of
the direct engine call, results must be byte-identical, and the
snapshot must report a non-degenerate p99. The tolerance is wider
than the streaming gate's: the serving path adds an event loop, a
future per request, and a thread hop per dispatch -- real, bounded
overhead that the gate keeps bounded rather than pretends away.
Refresh the committed numbers with:

    PYTHONPATH=src REPRO_BENCH_SITES=48 python -m pytest \
        benchmarks/bench_serve.py --benchmark-json=benchmarks/BENCH_serve.json
"""

import asyncio
import time

import numpy as np

from repro.engine import Engine, EngineConfig
from repro.serve.request import ServiceConfig
from repro.serve.service import RealignmentService
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

from conftest import bench_sites

#: Kernel pinned so the committed baseline (BENCH_serve.json) keeps
#: measuring the same plane; kernel routing is benched elsewhere.
POOL_KERNEL = "fft"
COMPLEXITIES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)

#: Sites per request job -- small on purpose: many concurrent small
#: requests is the regime the coalescing batcher exists for.
JOB_SITES = 4
SERVICE_CONFIG = ServiceConfig(
    max_queue_sites=4096,       # admission never the bottleneck here
    coalesce_sites=16,
    coalesce_wait_ms=1.0,
)

#: Serving-gate tolerance: the request plane must finish the full
#: pool within this factor of one direct engine call on the same
#: sites. Same best-of-N reasoning as bench_stream's gate, plus a
#: wider allowance for the serving machinery itself (event loop,
#: futures, single-thread executor hop, latency bookkeeping).
GATE_RUNS = 3
SERVE_TOLERANCE = 1.35


def _site_pool():
    rng = np.random.default_rng(2019)
    n = bench_sites()
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=COMPLEXITIES[i % len(COMPLEXITIES)])
        for i in range(n)
    ]


def _jobs(sites):
    return [sites[i:i + JOB_SITES] for i in range(0, len(sites), JOB_SITES)]


def _run_service(engine, jobs):
    """Submit every job concurrently; return (flat results, snapshot)."""

    async def drive():
        service = RealignmentService(engine, SERVICE_CONFIG)
        await service.start()
        slices = await asyncio.gather(*(
            service.submit_sites(job, tenant=f"t{i % 4}")
            for i, job in enumerate(jobs)
        ))
        snapshot = service.snapshot()
        await service.close()
        return [r for s in slices for r in s], snapshot

    return asyncio.run(drive())


def test_serve_direct_engine(benchmark):
    sites = _site_pool()
    with Engine(EngineConfig(kernel=POOL_KERNEL)) as engine:
        results = benchmark(engine.run_sites, sites)
    assert len(results) == len(sites)


def test_serve_request_plane(benchmark):
    sites = _site_pool()
    jobs = _jobs(sites)
    with Engine(EngineConfig(kernel=POOL_KERNEL)) as engine:
        results, snapshot = benchmark(_run_service, engine, jobs)
    assert len(results) == len(sites)
    assert snapshot.counters["serve.requests_completed"] == len(jobs)
    assert snapshot.latency["p99_ms"] > 0.0


def _best_of(runs, func):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_serve_gate():
    """CI acceptance gate: bounded serving overhead, exact results,
    non-degenerate latency reporting.

    Live relative comparison -- both paths timed best-of-``GATE_RUNS``
    in one process over one site pool and one engine, so host speed
    divides out (docs/SERVING.md)."""
    sites = _site_pool()
    jobs = _jobs(sites)
    with Engine(EngineConfig(kernel=POOL_KERNEL)) as engine:
        # Byte-identity first: a coalesced batch of strangers must
        # realign every site exactly as the direct call does.
        want = engine.run_sites(sites)
        got, snapshot = _run_service(engine, jobs)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.same_outputs(b)

        direct_time = _best_of(GATE_RUNS, lambda: engine.run_sites(sites))
        serve_best = [None]

        def serve_once():
            serve_best[0] = _run_service(engine, jobs)

        serve_time = _best_of(GATE_RUNS, serve_once)
        _results, snapshot = serve_best[0]

    latency = snapshot.latency
    throughput = len(sites) / serve_time
    print(f"\nrequest plane vs direct engine at {len(sites)} sites, "
          f"{len(jobs)} jobs of {JOB_SITES}:")
    print(f"  wall-clock  direct {direct_time * 1e3:7.1f} ms   "
          f"served {serve_time * 1e3:7.1f} ms   "
          f"({serve_time / direct_time:.2f}x)")
    print(f"  throughput  {throughput:7.1f} sites/s served")
    print(f"  latency     p50 {latency['p50_ms']:.1f} ms / "
          f"p95 {latency['p95_ms']:.1f} ms / p99 {latency['p99_ms']:.1f} ms")
    print(f"  saturation  {snapshot.saturation:.1%}")

    assert serve_time <= direct_time * SERVE_TOLERANCE, (
        f"request plane overhead past {SERVE_TOLERANCE}x: "
        f"{serve_time:.3f}s vs direct {direct_time:.3f}s "
        f"over {len(sites)} sites"
    )
    assert latency["p99_ms"] >= latency["p50_ms"] > 0.0
    assert snapshot.counters["serve.requests_completed"] == len(jobs)
