"""Property tests for the batched engine: exactness and filter soundness.

The engine is only allowed to be fast, never different: for any site the
batched FFT kernel must reproduce the scalar kernel's grids exactly, and
the pre-alignment filter's bounds must never prune anything that could
have changed a realignment decision. Hypothesis drives ragged shapes
(mixed read/consensus lengths, zero-quality bases, duplicate reads) that
the fixed workload generator would rarely produce.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    min_whd_grid_batched,
    pair_lower_bounds,
    realign_site_batched,
)
from repro.engine.batch import PackedSite, fast_fft_length
from repro.engine.prefilter import pairs_cannot_beat_reference
from repro.realign.site import RealignmentSite
from repro.realign.whd import min_whd_grid, realign_site
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def ragged_site(draw):
    """A small site with deliberately mixed lengths and qualities.

    Qualities include 0 (a Phred-0 base bounds nothing, which exercises
    the filter's minq == 0 threshold path).
    """
    num_reads = draw(st.integers(1, 5))
    read_lens = [draw(st.integers(1, 10)) for _ in range(num_reads)]
    longest = max(read_lens)
    num_cons = draw(st.integers(1, 4))
    cons = tuple(
        draw(st.text(alphabet="ACGT", min_size=m, max_size=m))
        for m in (
            draw(st.integers(longest, longest + 20))
            for _ in range(num_cons)
        )
    )
    reads = tuple(
        draw(st.text(alphabet="ACGT", min_size=n, max_size=n))
        for n in read_lens
    )
    quals = tuple(
        np.array(
            draw(st.lists(st.integers(0, 60), min_size=n, max_size=n)),
            dtype=np.uint8,
        )
        for n in read_lens
    )
    return RealignmentSite(chrom="c", start=draw(st.integers(0, 10_000)),
                           consensuses=cons, reads=reads, quals=quals)


class TestBatchedExactness:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_unfiltered_grids_equal_scalar(self, data):
        site = ragged_site(data.draw)
        mw, mi = min_whd_grid_batched(site, prefilter=False)
        ref_w, ref_i = min_whd_grid(site)
        np.testing.assert_array_equal(mw, ref_w)
        np.testing.assert_array_equal(mi, ref_i)

    @given(st.data(), st.sampled_from(["similarity", "absdiff"]))
    @settings(max_examples=60, deadline=None)
    def test_prefiltered_decisions_equal_scalar(self, data, scoring):
        site = ragged_site(data.draw)
        got = realign_site_batched(site, scoring=scoring)
        want = realign_site(site, scoring=scoring)
        assert got.same_outputs(want)

    @given(st.integers(0, 400))
    @settings(max_examples=20, deadline=None)
    def test_synthesized_sites_equal_scalar(self, seed):
        site = synthesize_site(np.random.default_rng(seed), BENCH_PROFILE,
                               complexity=0.4)
        assert realign_site_batched(site).same_outputs(realign_site(site))
        mw, mi = min_whd_grid_batched(site, prefilter=False)
        ref_w, ref_i = min_whd_grid(site)
        np.testing.assert_array_equal(mw, ref_w)
        np.testing.assert_array_equal(mi, ref_i)


class TestPrefilterSoundness:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lower_bounds_never_exceed_true_whd(self, data):
        site = ragged_site(data.draw)
        lb = pair_lower_bounds(site)
        true_w, _ = min_whd_grid(site)
        assert (lb <= true_w).all()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_never_prunes_a_pair_that_beats_the_reference(self, data):
        """A (consensus, read) pair whose true WHD is strictly below the
        reference's could trigger realignment; the filter must never
        flag it as prunable."""
        site = ragged_site(data.draw)
        lb = pair_lower_bounds(site)
        true_w, _ = min_whd_grid(site)
        flagged = pairs_cannot_beat_reference(lb, true_w[0])
        beats_ref = true_w < true_w[0][None, :]
        assert not (flagged & beats_ref).any()
        assert not flagged[0].any()  # the reference row is never flagged


class TestPackingProperties:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_valid_cells_matches_offsets(self, data):
        site = ragged_site(data.draw)
        packed = PackedSite.from_site(site)
        expected = sum(
            site.offsets(i, j)
            for i in range(site.num_consensuses)
            for j in range(site.num_reads)
        )
        assert packed.valid_cells() == expected

    @given(st.integers(1, 5000))
    @settings(max_examples=60, deadline=None)
    def test_fast_fft_length_bounds(self, n):
        length = fast_fft_length(n)
        assert length >= n
        # Never worse than the next power of two, and of the stated form.
        assert length <= 1 << (n - 1).bit_length()
        odd = length
        while odd % 2 == 0:
            odd //= 2
        assert odd in (1, 3, 5, 9, 15)
