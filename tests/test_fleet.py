"""Unit and property tests for fleet planning."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.perf.fleet import (
    FleetJob,
    diagnostic_turnaround,
    plan_fleet,
)
from repro.perf.instances import F1_2XLARGE

jobs_strategy = st.lists(
    st.floats(min_value=1.0, max_value=5_000.0), min_size=1, max_size=30
).map(lambda xs: [FleetJob(f"job{i}", s) for i, s in enumerate(xs)])


class TestPlanFleet:
    def test_single_instance_serializes(self):
        jobs = [FleetJob("a", 10), FleetJob("b", 20)]
        plan = plan_fleet(jobs, 1)
        assert plan.makespan_seconds == 30
        assert plan.utilization == 1.0

    def test_lpt_placement(self):
        jobs = [FleetJob(str(i), s) for i, s in enumerate([9, 7, 6, 5, 5])]
        plan = plan_fleet(jobs, 2)
        # LPT: 9 | 7, then 6 -> lighter, 5 -> lighter, 5 -> lighter.
        assert plan.makespan_seconds == 18
        # Within the greedy bound of the optimum (16 here).
        assert plan.makespan_seconds <= 16 * (4 / 3)

    def test_cost_is_busy_time(self):
        jobs = [FleetJob("a", 3600), FleetJob("b", 3600)]
        plan = plan_fleet(jobs, 2)
        assert plan.cost_dollars == pytest.approx(2 * F1_2XLARGE.price_per_hour)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_fleet([], 0)
        with pytest.raises(ValueError):
            FleetJob("bad", -1)

    @given(jobs_strategy, st.integers(1, 8))
    @example(jobs=[FleetJob(f"job{i}", s) for i, s in
                   enumerate([127.0, 127.0, 2.414561942742555,
                              2.414561942742555])], fleet=2)
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, jobs, fleet):
        plan = plan_fleet(jobs, fleet)
        placed = [job for queue in plan.assignments.values() for job in queue]
        assert sorted(j.name for j in placed) == sorted(j.name for j in jobs)
        total = sum(j.seconds for j in jobs)
        longest = max(j.seconds for j in jobs)
        assert plan.makespan_seconds >= max(total / fleet, longest) - 1e-6
        assert plan.makespan_seconds <= total + 1e-6
        # The greedy list-scheduling bound: makespan <= mean load + longest.
        assert plan.makespan_seconds <= total / fleet + longest + 1e-6
        assert 0.0 < plan.utilization <= 1.0


class TestDeadlinePlanning:

    def test_diagnostic_turnaround(self):
        plan = diagnostic_turnaround({"1": 120.0, "2": 110.0, "21": 20.0}, 2)
        assert plan.makespan_seconds == 130  # 120+...: LPT -> 120|110+20
        assert plan.num_instances == 2
