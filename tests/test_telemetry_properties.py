"""Property tests for the telemetry invariants (hypothesis).

The telemetry layer is only trustworthy if its numbers obey the
accounting identities by construction, for *every* workload the
schedulers can see -- not just the fixtures other tests use. These
properties pin:

- per-unit ``busy + idle == makespan`` (the counters partition time);
- sum of a unit's compute-span durations == its busy cycles (the span
  timeline and the counter board describe the same run);
- ``occupancy`` always lands in ``[0, 1]``;
- every WHD kernel reports the same semantic ``kernel.*`` counters for
  the same site (``fft``'s ``kernel.whd_mass`` sums only the cells it
  computed), and each kernel's own extra counters are pinned on the
  Figure 4 site;
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
from repro.engine.autotune import KERNELS, dispatch_realign
from repro.engine.native import native_available
from repro.experiments.figure4 import build_site
from repro.realign.whd import SCORING_METHODS
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


#: The counters one function counts for every kernel, on the
#: algorithm's semantics.
SEMANTIC_COUNTERS = ("kernel.sites", "kernel.grid_cells",
                     "kernel.offsets_evaluated", "kernel.whd_mass",
                     "kernel.reads_realigned", "kernel.consensus_selected")

#: Each kernel's own counters on the Figure 4 site (24 in-range
#: offsets); the ``native`` row depends on whether a compiled backend
#: loads here.
FIGURE4_EXTRAS = {
    "scalar": {},
    "vector": {},
    "fft": {"kernel.cells_evaluated": 24, "kernel.cells_pruned": 0,
            "engine.rows_eliminated": 0, "engine.pairs_pruned": 0},
    "bitpack": {"bitpack.offsets_screened": 24, "bitpack.offsets_exact": 15},
    "native": ({"native.offsets_screened": 24, "native.offsets_exact": 8}
               if native_available() else
               {"kernel.native.unavailable": 1,
                "bitpack.offsets_screened": 24, "bitpack.offsets_exact": 15}),
}


def _kernel_counters(site, kernel, scoring="similarity"):
    session = Telemetry()
    result = dispatch_realign(site, kernel=kernel, scoring=scoring,
                              telemetry=session)
    return result, session.counters.flat()


class TestKernelCounters:
    @SLOW
    @given(seed=st.integers(0, 10**6),
           complexity=st.floats(0.5, 2.0))
    def test_vectorized_and_scalar_kernels_count_identically(
        self, seed, complexity
    ):
        site = synthesize_site(np.random.default_rng(seed), BENCH_PROFILE,
                               complexity=complexity)
        result_vec, vec = _kernel_counters(site, "vector")
        result_scalar, scalar = _kernel_counters(site, "scalar")
        vec.pop("kernel.chosen.vector")
        scalar.pop("kernel.chosen.scalar")
        assert vec == scalar
        assert result_vec.same_outputs(result_scalar)

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10**6), scoring=st.sampled_from(
        SCORING_METHODS))
    def test_every_kernel_counts_the_same(self, kernel, seed, scoring):
        site = synthesize_site(np.random.default_rng(seed), BENCH_PROFILE,
                               complexity=0.5)
        _, want = _kernel_counters(site, "vector", scoring)
        _, got = _kernel_counters(site, kernel, scoring)
        for name in SEMANTIC_COUNTERS:
            if kernel == "fft" and name == "kernel.whd_mass":
                # the mass of the computed cells: rows the prefilter
                # eliminated stay at the sentinel and count nothing
                assert got[name] <= want[name]
                if got["engine.rows_eliminated"] == 0:
                    assert got[name] == want[name]
            else:
                assert got[name] == want[name], name

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_extra_counters_on_the_figure4_site(self, kernel):
        _, counters = _kernel_counters(build_site(), kernel)
        assert counters.pop(f"kernel.chosen.{kernel}") == 1
        assert {name: counters.pop(name) for name in SEMANTIC_COUNTERS} == {
            "kernel.sites": 1, "kernel.grid_cells": 6,
            "kernel.offsets_evaluated": 24, "kernel.whd_mass": 155,
            "kernel.reads_realigned": 1, "kernel.consensus_selected": 1}
        assert counters == FIGURE4_EXTRAS[kernel]


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
