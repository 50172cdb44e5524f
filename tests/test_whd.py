"""Unit tests for the WHD kernel (paper Algorithms 1 and 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hdc import HammingDistanceCalculator
from repro.genomics.sequence import seq_to_array
from repro.realign.site import RealignmentSite
from repro.realign.whd import (
    WHD_SENTINEL,
    calc_whd,
    min_whd_grid,
    min_whd_grid_scalar,
    min_whd_pair,
    reads_realignments,
    score_and_select,
    select_and_realign,
    whd_profile,
)

QUALS0 = np.array([10, 20, 45, 10], dtype=np.uint8)
QUALS1 = np.array([10, 60, 30, 20], dtype=np.uint8)


def figure4_site():
    return RealignmentSite(
        chrom="22", start=10_000,
        consensuses=("CCTTAGA", "ACCTGAA", "TCTGCCT"),
        reads=("TGAA", "CCTC"),
        quals=(QUALS0, QUALS1),
    )


class TestCalcWhd:
    def test_figure4_read0_offsets(self):
        # Paper Figure 4 left column: whd = 85, 75, 30, 65 for k = 0..3.
        ref = "CCTTAGA"
        assert [calc_whd(ref, "TGAA", QUALS0, k) for k in range(4)] == \
            [85, 75, 30, 65]

    def test_figure4_read1_offsets(self):
        ref = "CCTTAGA"
        assert [calc_whd(ref, "CCTC", QUALS1, k) for k in range(4)] == \
            [20, 80, 120, 120]

    def test_perfect_match_is_zero(self):
        assert calc_whd("ACGT", "ACGT", [40, 40, 40, 40], 0) == 0

    def test_out_of_range_offset(self):
        with pytest.raises(ValueError):
            calc_whd("ACGT", "AC", [1, 1], 3)


class TestMinWhdPair:
    def test_figure4_minimums(self):
        assert min_whd_pair("CCTTAGA", "TGAA", QUALS0) == (30, 2)
        assert min_whd_pair("CCTTAGA", "CCTC", QUALS1) == (20, 0)

    def test_earliest_offset_wins_ties(self):
        # Read matches at offsets 0 and 4 equally.
        whd, idx = min_whd_pair("ACACAC", "AC", [7, 7])
        assert whd == 0 and idx == 0

    def test_equal_length_pair_has_one_offset(self):
        whd, idx = min_whd_pair("ACGT", "ACGA", [5, 5, 5, 9])
        assert (whd, idx) == (9, 0)


class TestVectorizedForms:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_profile_matches_scalar(self, data):
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(n, 24))
        cons = data.draw(st.text(alphabet="ACGT", min_size=m, max_size=m))
        read = data.draw(st.text(alphabet="ACGT", min_size=n, max_size=n))
        quals = np.array(
            data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n)),
            dtype=np.uint8,
        )
        profile = whd_profile(seq_to_array(cons), seq_to_array(read), quals)
        expected = [calc_whd(cons, read, quals, k) for k in range(m - n + 1)]
        assert profile.tolist() == expected

    def test_cumulative_last_column_is_profile(self):
        # The accelerator model's per-offset running sums end in the
        # profile: its pair minimum is the profile's earliest minimum,
        # with and without pruning.
        cons = seq_to_array("CCTTAGA")
        read = seq_to_array("TGAA")
        profile = whd_profile(cons, read, QUALS0)
        for prune in (False, True):
            pair = HammingDistanceCalculator(lanes=1, prune=prune) \
                .compute_pair(cons, read, QUALS0)
            assert (pair.min_whd, pair.min_whd_idx) == (
                int(profile.min()), int(np.argmin(profile)))

    def test_grid_scalar_vs_vectorized(self):
        site = figure4_site()
        grid_v, idx_v = min_whd_grid(site)
        grid_s, idx_s = min_whd_grid_scalar(site)
        assert np.array_equal(grid_v, grid_s)
        assert np.array_equal(idx_v, idx_s)


class TestScoreAndSelect:
    def test_figure4_absdiff_scores(self):
        """The pseudo-code/Figure 4 scoring: |delta vs REF| sums."""
        grid, _ = min_whd_grid(figure4_site())
        best, scores = score_and_select(grid, method="absdiff")
        assert scores.tolist() == [0, 30, 35]
        assert best == 1

    def test_figure4_similarity_scores(self):
        """The prose/GATK3 scoring: total min-WHD per consensus."""
        grid, _ = min_whd_grid(figure4_site())
        best, scores = score_and_select(grid, method="similarity")
        assert scores.tolist() == [50, 20, 85]
        assert best == 1  # both semantics agree on the figure's example

    def test_single_consensus_returns_reference(self):
        best, _scores = score_and_select(np.array([[5, 7]]))
        assert best == 0
        best, scores = score_and_select(np.array([[5, 7]]), method="absdiff")
        assert best == 0 and scores.tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        grid = np.array([[10, 10], [8, 12], [12, 8]])
        best, scores = score_and_select(grid, method="absdiff")
        assert scores.tolist() == [0, 4, 4]
        assert best == 1
        best_sim, scores_sim = score_and_select(grid, method="similarity")
        assert scores_sim.tolist() == [20, 20, 20]
        assert best_sim == 1

    def test_methods_diverge_on_competing_consensuses(self):
        """The pathology absdiff exhibits: a strongly improving
        consensus has a *large* delta-vs-REF, so absdiff-min prefers a
        weakly improving one; similarity picks the strong one."""
        grid = np.array([
            [100, 100, 100],  # REF
            [0, 0, 100],      # true consensus: fixes two reads
            [90, 90, 100],    # spurious consensus: barely helps
        ])
        best_abs, _ = score_and_select(grid, method="absdiff")
        best_sim, _ = score_and_select(grid, method="similarity")
        assert best_abs == 2
        assert best_sim == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            score_and_select(np.array([[1]]), method="vibes")


class TestRealignments:
    def test_figure4_decisions(self):
        site = figure4_site()
        result = select_and_realign(site, *min_whd_grid(site))
        assert result.realign.tolist() == [True, False]
        assert result.new_pos.tolist() == [10_003, -1]
        assert result.num_realigned == 1

    def test_strict_improvement_required(self):
        grid = np.array([[10, 10], [10, 9]])
        idx = np.zeros_like(grid)
        realign, new_pos = reads_realignments(grid, idx, 1, 0)
        assert realign.tolist() == [False, True]
        assert new_pos.tolist() == [-1, 0]

    def test_same_outputs_predicate(self):
        site = figure4_site()
        a = select_and_realign(site, *min_whd_grid(site))
        b = select_and_realign(site, *min_whd_grid_scalar(site))
        assert a.same_outputs(b)

    def test_sentinel_is_large(self):
        # The sentinel must exceed any reachable WHD (256 * 93).
        assert WHD_SENTINEL > 256 * 93
