"""Shared benchmark configuration.

Each benchmark module regenerates one paper table or figure: the
pytest-benchmark fixture times the experiment's core computation, and
the captured stdout (run pytest with ``-s`` to see it live) carries the
paper-versus-measured tables recorded in EXPERIMENTS.md. The Figure 9
and Section V-B benches instead read one session-scoped run each
(``figure9_outcome``, ``comparisons_outcome``): four benches, two runs.

Workload sizes are controlled by the environment variables
``REPRO_BENCH_SITES`` (sites per chromosome, default 96) and
``REPRO_BENCH_REPLICATION`` (schedule replication, default 24).
"""

import os

import pytest


def bench_sites() -> int:
    return int(os.environ.get("REPRO_BENCH_SITES", "96"))


def bench_replication() -> int:
    return int(os.environ.get("REPRO_BENCH_REPLICATION", "24"))


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (workload-scale runs)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


@pytest.fixture(scope="session")
def figure9_outcome():
    """Figure 9 at bench scale, built once per session: the speedup and
    the cost bench read the same run. Prints the paper-versus-measured
    tables."""
    from repro.experiments import figure9

    return figure9.main(bench_sites(), bench_replication())


@pytest.fixture(scope="session")
def comparisons_outcome():
    """Section V-B (Figure 9 on the design-point subset) at bench scale,
    built once per session: the ADAM and the HLS bench read the same
    run. Prints the comparison table."""
    from repro.experiments import comparisons

    return comparisons.main(bench_sites(), bench_replication())
