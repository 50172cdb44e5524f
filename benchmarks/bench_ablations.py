"""Ablations of the design choices DESIGN.md calls out.

Sweeps, on one chromosome-22 workload:

- data-parallel lane width (1 / 8 / 16 / 32, Section IV);
- computation pruning on/off (Section III-A);
- unit count (1-32, Section III-A / IV);
- scheduling scheme (Figure 7 at workload scale);
- TileLink interface width (Section III-B: "a 256-bit interface
  provided the best performance under the timing constraints").
"""

import numpy as np
import pytest
from conftest import bench_replication

from repro.core.accelerator import IRUnit, UnitConfig
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.experiments.reporting import format_table
from repro.hw.tilelink import TileLinkLink
from repro.workloads.chromosomes import census_for
from repro.workloads.generator import BENCH_PROFILE, chromosome_workload

pytestmark = pytest.mark.paper


def _workload(num_sites=48, seed=5):
    census = census_for("22")
    return chromosome_workload(census, num_sites / census.ir_targets,
                               BENCH_PROFILE, seed=seed)


def _run(sites, replication=None, **config_kwargs):
    config = SystemConfig(name="ablation", **config_kwargs)
    return AcceleratedIRSystem(config).run(
        sites, replication=replication or bench_replication()
    )


def test_lane_width_sweep(once):
    sites = _workload()

    def sweep():
        return {lanes: _run(sites, lanes=lanes).total_seconds
                for lanes in (1, 8, 16, 32)}

    times = once(sweep)
    print()
    print(format_table(
        ["lanes", "seconds", "speedup vs scalar"],
        [[lanes, f"{t:.4f}", f"{times[1] / t:.1f}x"]
         for lanes, t in times.items()],
    ))
    # Wider datapaths are monotonically faster; the paper observed ~15x
    # from the 32-wide calculator.
    assert times[32] < times[16] < times[8] < times[1]
    assert times[1] / times[32] > 5


def test_pruning_ablation(once):
    sites = _workload()

    def sweep():
        return (_run(sites, prune=True).total_seconds,
                _run(sites, prune=False).total_seconds)

    pruned, unpruned = once(sweep)
    print(f"\npruning on: {pruned:.4f}s  off: {unpruned:.4f}s  "
          f"gain {unpruned / pruned:.2f}x")
    # Paper: >50% of comparisons eliminated => roughly 2x on compute.
    assert unpruned / pruned > 1.3


def test_unit_count_sweep(once):
    sites = _workload()

    def sweep():
        return {n: _run(sites, num_units=n).total_seconds
                for n in (1, 4, 16, 32)}

    times = once(sweep)
    print()
    print(format_table(
        ["units", "seconds", "scaling vs 1 unit"],
        [[n, f"{t:.4f}", f"{times[1] / t:.1f}x"] for n, t in times.items()],
    ))
    # "the computation time scales (almost) linearly with the number of
    # units available" (Section IV).
    assert times[1] / times[32] > 16


def test_scheduling_ablation(once):
    sites = _workload()

    def sweep():
        return (_run(sites, scheduling="sync", lanes=1).total_seconds,
                _run(sites, scheduling="async", lanes=1).total_seconds)

    sync_time, async_time = once(sweep)
    print(f"\nsync: {sync_time:.4f}s  async: {async_time:.4f}s  "
          f"gain {sync_time / async_time:.2f}x")
    assert async_time < sync_time  # paper: ~6.2x average gain


def test_tilelink_width_tradeoff(once):
    """Wider links cut beats but lose clock: 256 bits is the sweet spot."""

    def sweep():
        best = {}
        for width in (64, 128, 256, 512, 1024):
            link = TileLinkLink(data_width_bits=width)
            frequency = link.achievable_frequency_hz()
            # Normalized fill throughput: bytes per second into a unit.
            best[width] = link.bytes_per_beat * frequency
        return best

    rates = once(sweep)
    print()
    print(format_table(
        ["width", "bytes/beat", "fill GB/s"],
        [[w, w // 8, f"{r / 1e9:.1f}"] for w, r in rates.items()],
    ))
    # Throughput grows to 256 bits; the datapath consumes 32 B/cycle, so
    # widths beyond 256 buy nothing while costing routing slack -- the
    # paper's reason for settling on 256.
    assert rates[256] > rates[128] > rates[64]
    consumed = 32 * 125e6
    assert rates[256] >= consumed
