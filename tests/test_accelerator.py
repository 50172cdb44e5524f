"""Unit and property tests for the IR accelerator unit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import IRUnit, UnitConfig
from repro.engine.autotune import dispatch_realign
from repro.realign.site import RealignmentSite
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def small_site(seed=0):
    rng = np.random.default_rng(seed)
    profile = BENCH_PROFILE
    return synthesize_site(rng, profile, complexity=0.4)


class TestModes:
    @given(st.integers(0, 50), st.sampled_from([1, 32]), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_stepped_equals_analytic(self, seed, lanes, prune):
        site = small_site(seed)
        unit = IRUnit(UnitConfig(lanes=lanes, prune=prune))
        stepped = unit.run_site(site, mode="stepped")
        analytic = unit.run_site(site, mode="analytic")
        assert stepped.best_cons == analytic.best_cons
        assert np.array_equal(stepped.realign, analytic.realign)
        assert np.array_equal(stepped.new_pos, analytic.new_pos)
        assert stepped.cycles == analytic.cycles
        assert stepped.comparisons == analytic.comparisons

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            IRUnit().run_site(small_site(), mode="quantum")


class TestFunctionalEquivalence:
    @given(st.integers(0, 80), st.sampled_from([1, 8, 32]), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_matches_software_kernel(self, seed, lanes, prune):
        site = small_site(seed)
        unit = IRUnit(UnitConfig(lanes=lanes, prune=prune))
        hardware = unit.run_site(site)
        software = dispatch_realign(site, kernel="vector")
        assert hardware.matches(software)

    def test_figure4_site(self):
        site = RealignmentSite(
            chrom="22", start=10_000,
            consensuses=("CCTTAGA", "ACCTGAA", "TCTGCCT"),
            reads=("TGAA", "CCTC"),
            quals=(np.array([10, 20, 45, 10], np.uint8),
                   np.array([10, 60, 30, 20], np.uint8)),
        )
        result = IRUnit().run_site(site, mode="stepped")
        assert result.best_cons == 1
        assert result.realign.tolist() == [True, False]
        assert result.new_pos.tolist() == [10_003, -1]


class TestCycleAccounting:
    def test_breakdown_components_positive(self):
        site = small_site(3)
        result = IRUnit().run_site(site)
        cycles = result.cycles
        assert cycles.config == 8 + site.num_consensuses
        assert cycles.fill > 0
        assert cycles.compute > 0
        assert cycles.selector > 0
        assert cycles.writeback > 0
        assert cycles.total == (cycles.config + cycles.fill + cycles.compute
                                + cycles.selector + cycles.writeback)

    def test_fill_counts_blocks(self):
        site = RealignmentSite(
            chrom="1", start=0,
            consensuses=("A" * 64, "A" * 33),
            reads=("A" * 33,), quals=(np.full(33, 1, np.uint8),),
        )
        result = IRUnit().run_site(site)
        # consensus beats: 2 + 2; read bases: 2; quals: 2; records: 2 + 2.
        assert result.cycles.fill == (2 + 2) + 2 + 2 + 4

    def test_data_parallel_cuts_compute(self):
        site = small_site(5)
        scalar = IRUnit(UnitConfig(lanes=1)).run_site(site)
        wide = IRUnit(UnitConfig(lanes=32)).run_site(site)
        assert wide.cycles.compute < scalar.cycles.compute
        # Functional outputs identical.
        assert np.array_equal(scalar.new_pos, wide.new_pos)

    def test_pruning_cuts_compute(self):
        site = small_site(6)
        pruned = IRUnit(UnitConfig(prune=True)).run_site(site)
        unpruned = IRUnit(UnitConfig(prune=False)).run_site(site)
        assert pruned.cycles.compute < unpruned.cycles.compute
        assert pruned.comparisons < unpruned.comparisons
        assert unpruned.pruned_fraction == 0.0
