"""Property tests for the telemetry invariants (hypothesis).

The telemetry layer is only trustworthy if its numbers obey the
accounting identities by construction, for *every* workload the
schedulers can see -- not just the fixtures other tests use. These
properties pin:

- per-unit ``busy + idle == makespan`` (the counters partition time);
- sum of a unit's compute-span durations == its busy cycles (the span
  timeline and the counter board describe the same run);
- ``occupancy`` always lands in ``[0, 1]``;
- the vectorized and scalar WHD kernels report identical ``kernel.*``
  counters for the same site;
- enabling telemetry changes no functional output -- realignment
  grids, makespans, schedules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (
    ScheduledTarget,
    schedule_async,
    schedule_sync,
)
from repro.realign.whd import realign_site
from repro.telemetry import CAT_COMPUTE, Telemetry, unit_track
from repro.telemetry.metrics import derive_schedule_metrics
from repro.workloads.generator import BENCH_PROFILE, synthesize_site

SLOW = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (transfer_cycles, compute_cycles) pairs -> a ScheduledTarget list.
targets_lists = st.lists(
    st.tuples(st.integers(0, 300), st.integers(1, 4000)),
    min_size=1, max_size=16,
).map(lambda pairs: [
    ScheduledTarget(index=i, transfer_cycles=t, compute_cycles=c)
    for i, (t, c) in enumerate(pairs)
])

unit_counts = st.integers(min_value=1, max_value=6)


def _schedule(scheme: str, targets, num_units, telemetry):
    if scheme == "sync":
        return schedule_sync(targets, num_units, telemetry=telemetry)
    return schedule_async(targets, num_units, telemetry=telemetry)


class TestTimeAccountingInvariants:
    @SLOW
    @given(targets=targets_lists, num_units=unit_counts,
           scheme=st.sampled_from(["sync", "async"]))
    def test_busy_plus_idle_is_makespan_for_every_unit(
        self, targets, num_units, scheme
    ):
        telemetry = Telemetry()
        result = _schedule(scheme, targets, num_units, telemetry)
        makespan = result.makespan
        blocks = list(telemetry.counters.iter_units())
        assert blocks, "scheduling recorded no unit counters"
        for block in blocks:
            assert block.busy_cycles + block.idle_cycles == makespan, (
                f"{scheme}: unit {block.unit} busy {block.busy_cycles} + "
                f"idle {block.idle_cycles} != makespan {makespan}"
            )
            assert 0 <= block.stall_cycles <= block.idle_cycles

    @SLOW
    @given(targets=targets_lists, num_units=unit_counts,
           scheme=st.sampled_from(["sync", "async"]))
    def test_span_durations_sum_to_busy_cycles(
        self, targets, num_units, scheme
    ):
        telemetry = Telemetry()
        _schedule(scheme, targets, num_units, telemetry)
        for block in telemetry.counters.iter_units():
            if block.unit < 0:
                continue
            track = unit_track(block.unit)
            span_cycles = sum(
                span.duration for span in telemetry.spans
                if span.track == track
                and span.category == CAT_COMPUTE
            )
            assert span_cycles == block.busy_cycles

    @SLOW
    @given(targets=targets_lists, num_units=unit_counts,
           scheme=st.sampled_from(["sync", "async"]))
    def test_occupancy_bounded(self, targets, num_units, scheme):
        telemetry = Telemetry()
        _schedule(scheme, targets, num_units, telemetry)
        for block in telemetry.counters.iter_units():
            assert 0.0 <= block.occupancy <= 1.0
        metrics = derive_schedule_metrics(telemetry)
        assert 0.0 <= metrics.mean_occupancy <= 1.0
        assert metrics.critical_path_ticks <= metrics.makespan_ticks


class TestKernelCounters:
    @SLOW
    @given(seed=st.integers(0, 10**6),
           complexity=st.floats(0.5, 2.0))
    def test_vectorized_and_scalar_kernels_count_identically(
        self, seed, complexity
    ):
        site = synthesize_site(np.random.default_rng(seed), BENCH_PROFILE,
                               complexity=complexity)
        vec, scalar = Telemetry(), Telemetry()
        result_vec = realign_site(site, vectorized=True, telemetry=vec)
        result_scalar = realign_site(site, vectorized=False,
                                     telemetry=scalar)
        assert vec.counters.flat() == scalar.counters.flat()
        assert result_vec.same_outputs(result_scalar)


class TestTelemetryIsPurelyObservational:
    @SLOW
    @given(targets=targets_lists, num_units=unit_counts,
           scheme=st.sampled_from(["sync", "async"]))
    def test_schedules_identical_with_and_without_telemetry(
        self, targets, num_units, scheme
    ):
        bare = _schedule(scheme, targets, num_units, None)
        traced = _schedule(scheme, targets, num_units, Telemetry())
        assert bare.makespan == traced.makespan
        assert bare.spans == traced.spans

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10**4),
           scheduling=st.sampled_from(["sync", "async"]))
    def test_system_output_bytes_identical_with_telemetry_on(
        self, seed, scheduling
    ):
        from repro.core.system import AcceleratedIRSystem, SystemConfig

        rng = np.random.default_rng(seed)
        sites = [synthesize_site(rng, BENCH_PROFILE) for _ in range(4)]

        def run(telemetry):
            config = SystemConfig(name="IR ACC", lanes=32,
                                  scheduling=scheduling)
            return AcceleratedIRSystem(config).run(sites,
                                                   telemetry=telemetry)

        bare, traced = run(None), run(Telemetry())
        assert bare.total_seconds == traced.total_seconds
        assert bare.schedule.spans == traced.schedule.spans
        for a, b in zip(bare.unit_results, traced.unit_results):
            assert a.matches(b)
            assert a.comparisons == b.comparisons
            assert a.cycles.total == b.cycles.total


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
