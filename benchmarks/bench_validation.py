"""Model-validation benches: fabric contention, roofline, protocol sim.

These back the analytic model's assumptions with independent
simulations:

- the two-level memory-arbitration fabric shows concurrent buffer fills
  stretch bounded by the DDR beat budget (and fills are a sliver of
  compute anyway);
- the roofline places IR targets far right of the ridge: compute-bound,
  as Section II-C argues;
- the protocol-level system simulation (real MMIO + router handshakes)
  reproduces the abstract scheduler's makespan.
"""

import numpy as np
import pytest

from repro.core.stepped_system import SteppedIRSystem
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.experiments.reporting import format_table
from repro.hw.fabric import DDR_BEATS_PER_CYCLE, fill_stretch_for_sites
from repro.perf.roofline import RooflineModel, summarize
from repro.workloads.generator import BENCH_PROFILE, REAL_PROFILE, synthesize_site

pytestmark = pytest.mark.paper


def _sites(count, profile=BENCH_PROFILE, seed=3):
    rng = np.random.default_rng(seed)
    return [synthesize_site(rng, profile) for _ in range(count)]


def test_fabric_fill_contention(once):
    sites = _sites(32)
    stretch = once(fill_stretch_for_sites, sites)
    print(f"\nworst fill stretch, 32 concurrent units on one DDR channel: "
          f"{stretch:.2f}x (bound {32 / DDR_BEATS_PER_CYCLE:.0f}x)")
    assert 1.0 <= stretch <= 32 / DDR_BEATS_PER_CYCLE + 1.0


def test_roofline_compute_bound(once):
    model = RooflineModel()

    def place_all():
        points = [model.place_site(site) for site in _sites(8)]
        points += [model.place_site(site)
                   for site in _sites(3, REAL_PROFILE, seed=9)]
        return points

    points = once(place_all)
    result = summarize(points)
    print()
    print(format_table(
        ["site", "comparisons/byte", "bound"],
        [[p.name, f"{p.arithmetic_intensity:.0f}",
          "compute" if p.compute_bound else "memory"] for p in points[:6]],
    ))
    print(f"ridge intensity: {model.ridge_intensity():.1f} comparisons/byte; "
          f"{result['compute_bound_fraction']:.0%} of sites compute-bound")
    assert result["compute_bound_fraction"] == 1.0


def test_protocol_sim_validates_scheduler(once):
    sites = _sites(24, seed=11)
    config = SystemConfig.iracc()

    def both():
        stepped = SteppedIRSystem(config).run(sites)
        analytic = AcceleratedIRSystem(config).run(sites)
        return stepped.makespan_cycles, config.clock.seconds_to_cycles(
            analytic.total_seconds
        )

    stepped_cycles, analytic_cycles = once(both)
    ratio = stepped_cycles / analytic_cycles
    print(f"\nprotocol-level makespan / analytic makespan: {ratio:.3f}")
    assert 0.8 <= ratio <= 1.25
