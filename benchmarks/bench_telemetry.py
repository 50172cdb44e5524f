"""Telemetry overhead gate: recording spans costs the system model little.

Every hot path takes ``telemetry=None`` and guards each event site with
a single ``is not None`` test, so the disabled cost is one branch. The
gate below times the same end-to-end ``AcceleratedIRSystem`` run with
telemetry off and on and asserts the enabled cost stays small (kernel
compute dominates; span recording is bookkeeping). Its bound is
deliberately loose for noisy CI machines -- the measured overhead is in
EXPERIMENTS.md "Telemetry overhead".
"""

import time

import numpy as np

from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.telemetry import Telemetry
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def test_system_run_telemetry_enabled_overhead_is_small():
    """End-to-end enabled overhead stays a small fraction of the run.

    Median-of-N timing of the same system run with telemetry off and
    on. The 1.25x gate is a CI-noise allowance, not the claim.
    """
    rng = np.random.default_rng(3)
    sites = [synthesize_site(rng, BENCH_PROFILE) for _ in range(8)]
    system = AcceleratedIRSystem(SystemConfig.iracc())
    system.run(sites)  # warm caches before timing

    def median_seconds(telemetry_factory, rounds=5):
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            system.run(sites, telemetry=telemetry_factory())
            samples.append(time.perf_counter() - start)
        samples.sort()
        return samples[len(samples) // 2]

    disabled = median_seconds(lambda: None)
    enabled = median_seconds(Telemetry)
    print(f"\ntelemetry on / off, 8-site system run: "
          f"{enabled / disabled:.3f}x ({enabled * 1e3:.1f} vs "
          f"{disabled * 1e3:.1f} ms)")
    assert enabled <= disabled * 1.25, (
        f"telemetry-enabled run took {enabled / disabled:.2f}x the "
        f"disabled run (enabled {enabled * 1e3:.1f} ms, disabled "
        f"{disabled * 1e3:.1f} ms)"
    )
