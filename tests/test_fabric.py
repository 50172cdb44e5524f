"""Unit tests for the memory-fabric contention simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.fabric import (
    CHANNELS_PER_UNIT,
    DDR_BEATS_PER_CYCLE,
    UnitFillRequest,
    fill_stretch_for_sites,
    simulate_fill,
)
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def request(*beats):
    return UnitFillRequest(channel_beats=tuple(beats))


class TestRequest:
    def test_channel_count_enforced(self):
        with pytest.raises(ValueError):
            UnitFillRequest(channel_beats=(1, 2, 3))
        with pytest.raises(ValueError):
            request(1, 2, 3, 4, -1)

    def test_for_site_matches_buffer_arithmetic(self):
        site = synthesize_site(np.random.default_rng(1), BENCH_PROFILE)
        req = UnitFillRequest.for_site(site)
        cons_beats = sum(-(-len(c) // 32) for c in site.consensuses)
        assert req.channel_beats[0] == cons_beats
        assert req.channel_beats[1] == req.channel_beats[2]
        assert req.total_beats > 0


class TestSimulation:
    def test_single_unit_uncontended(self):
        # One unit, DDR wider than its demand: one beat per cycle
        # (the 5:1 arbiter serialises the unit's own channels).
        result = simulate_fill([request(4, 4, 4, 1, 1)])
        assert result.beats_served == 14
        assert result.cycles == 14
        assert result.unit_stretch(0, 14) == 1.0

    def test_ddr_saturation(self):
        # 8 units demanding 10 beats each against 4 beats/cycle:
        # exactly 80 / 4 = 20 cycles if the fabric is work-conserving.
        requests = [request(2, 2, 2, 2, 2) for _ in range(8)]
        result = simulate_fill(requests, ddr_beats_per_cycle=4)
        assert result.beats_served == 80
        assert result.cycles == 20

    def test_fairness_across_units(self):
        requests = [request(5, 5, 5, 5, 5) for _ in range(4)]
        result = simulate_fill(requests, ddr_beats_per_cycle=2)
        # Equal demands finish within one round of each other.
        assert max(result.per_unit_finish) - min(result.per_unit_finish) <= 2

    def test_zero_beats(self):
        result = simulate_fill([request(0, 0, 0, 0, 0)])
        assert result.cycles == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_fill([], ddr_beats_per_cycle=0)

    @given(st.lists(
        st.tuples(*[st.integers(0, 12)] * CHANNELS_PER_UNIT),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=30, deadline=None)
    def test_work_conservation(self, beat_tuples):
        requests = [UnitFillRequest(channel_beats=t) for t in beat_tuples]
        total = sum(r.total_beats for r in requests)
        result = simulate_fill(requests, ddr_beats_per_cycle=3)
        assert result.beats_served == total
        if total:
            # Work conserving: no cycle is wasted while beats remain,
            # subject to the one-nomination-per-unit constraint.
            lower = -(-total // 3)
            upper = max(r.total_beats for r in requests) * len(requests)
            assert lower <= result.cycles <= max(upper, lower)


class TestDesignAssumption:
    def test_32_unit_fill_stretch_is_modest(self):
        """The analytic model treats fills as uncontended; the stepped
        fabric shows 32 concurrent fills stretch at most ~8x (32 units
        on a 4-beat DDR), and fills are a tiny slice of compute."""
        rng = np.random.default_rng(4)
        sites = [synthesize_site(rng, BENCH_PROFILE) for _ in range(32)]
        stretch = fill_stretch_for_sites(sites, DDR_BEATS_PER_CYCLE)
        assert 1.0 <= stretch <= 32 / DDR_BEATS_PER_CYCLE + 1.0
