"""Validation of the analytic system model against the protocol-level sim."""

import numpy as np
import pytest

from repro.core.stepped_system import SteppedIRSystem
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.engine.autotune import dispatch_realign
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


@pytest.fixture(scope="module")
def sites():
    rng = np.random.default_rng(19)
    return [synthesize_site(rng, BENCH_PROFILE, complexity=0.5)
            for _ in range(20)]


class TestProtocolRun:
    def test_every_target_dispatched_once(self, sites):
        result = SteppedIRSystem(SystemConfig.iracc()).run(sites)
        assert result.targets_processed == len(sites)
        dispatched = sorted(target for target, _u, _s in result.starts)
        assert dispatched == list(range(len(sites)))

    def test_command_counts_match_isa(self, sites):
        result = SteppedIRSystem(SystemConfig.iracc()).run(sites)
        expected = sum(8 + site.num_consensuses for site in sites)
        assert result.commands_issued == expected
        # Every unit reuse required a polled response.
        assert result.responses_polled == len(sites)

    def test_functional_outputs_match_software(self, sites):
        result = SteppedIRSystem(SystemConfig.iracc()).run(sites)
        for site, unit_result in zip(sites, result.unit_results):
            assert unit_result.matches(dispatch_realign(site, kernel="vector"))

    def test_no_unit_overlap(self, sites):
        config = SystemConfig(num_units=4)
        system = SteppedIRSystem(config)
        result = system.run(sites)
        per_unit = {}
        for target, unit, start in result.starts:
            end = start + result.unit_results[target].cycles.total
            per_unit.setdefault(unit, []).append((start, end))
        for intervals in per_unit.values():
            intervals.sort()
            for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2


class TestAgreementWithAnalyticModel:
    def test_makespan_close_to_scheduler(self, sites):
        """The abstract scheduler's makespan tracks the protocol-level
        one within the host-serialization overhead it abstracts away."""
        config = SystemConfig.iracc()
        stepped = SteppedIRSystem(config).run(sites)
        analytic = AcceleratedIRSystem(config).run(sites)
        analytic_cycles = config.clock.seconds_to_cycles(
            analytic.total_seconds
        )
        # The protocol sim adds AXILite configuration serialization the
        # analytic model folds into unit config cycles; agreement within
        # 20% on a 20-target workload is the fidelity claim.
        ratio = stepped.makespan_cycles / analytic_cycles
        assert 0.8 <= ratio <= 1.25

    def test_more_units_never_slower(self, sites):
        small = SteppedIRSystem(SystemConfig(num_units=2)).run(sites)
        large = SteppedIRSystem(SystemConfig(num_units=16)).run(sites)
        assert large.makespan_cycles <= small.makespan_cycles
