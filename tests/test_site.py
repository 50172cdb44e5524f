"""Unit tests for repro.realign.site."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.realign.site import (
    PAPER_LIMITS,
    RealignmentSite,
    SiteError,
    SiteLimits,
)


def make_site(consensuses=("ACGTACGT", "ACGTTACGT"), reads=("ACGT",),
              quals=None, **kwargs):
    if quals is None:
        quals = tuple(np.full(len(r), 30, np.uint8) for r in reads)
    return RealignmentSite(
        chrom="22", start=1000, consensuses=tuple(consensuses),
        reads=tuple(reads), quals=quals, **kwargs,
    )


class TestLimits:
    def test_paper_defaults(self):
        assert PAPER_LIMITS.max_consensuses == 32
        assert PAPER_LIMITS.max_consensus_length == 2048
        assert PAPER_LIMITS.max_reads == 256
        assert PAPER_LIMITS.max_read_length == 256

    def test_positive_required(self):
        with pytest.raises(ValueError):
            SiteLimits(max_consensuses=0)


class TestValidation:
    def test_valid_site(self):
        site = make_site()
        assert site.num_consensuses == 2
        assert site.num_reads == 1
        assert site.reference == "ACGTACGT"

    def test_needs_reference_consensus(self):
        with pytest.raises(SiteError):
            make_site(consensuses=())

    def test_needs_reads(self):
        with pytest.raises(SiteError):
            make_site(reads=(), quals=())

    def test_too_many_consensuses(self):
        limits = SiteLimits(max_consensuses=2)
        with pytest.raises(SiteError, match="exceed"):
            make_site(consensuses=("ACGTACGT",) * 3, limits=limits)

    def test_too_many_reads(self):
        limits = SiteLimits(max_reads=1)
        with pytest.raises(SiteError):
            make_site(reads=("ACGT", "ACGT"),
                      quals=(np.full(4, 1, np.uint8),) * 2, limits=limits)

    def test_read_longer_than_consensus(self):
        with pytest.raises(SiteError, match="shorter than the longest"):
            make_site(consensuses=("ACG",), reads=("ACGT",))

    def test_quality_length_mismatch(self):
        with pytest.raises(SiteError):
            make_site(quals=(np.full(3, 1, np.uint8),))

    def test_consensus_over_length_limit(self):
        limits = SiteLimits(max_consensus_length=4)
        with pytest.raises(SiteError):
            make_site(consensuses=("ACGTA",), reads=("AC",),
                      quals=(np.full(2, 1, np.uint8),), limits=limits)


class TestWorkArithmetic:
    def test_offsets(self):
        site = make_site()
        assert site.offsets(0, 0) == 8 - 4 + 1
        assert site.offsets(1, 0) == 9 - 4 + 1

    def test_unpruned_comparisons(self):
        site = make_site()
        # (5 offsets + 6 offsets) * 4 bases
        assert site.unpruned_comparisons() == (5 + 6) * 4

    @given(st.lists(st.integers(1, 256), min_size=1, max_size=20),
           st.lists(st.integers(0, 300), min_size=1, max_size=8))
    def test_unpruned_comparisons_closed_form(self, read_lengths, slacks):
        """The closed form (sum_i (m_i + 1)) * sum_j n_j - C * sum_j n_j**2
        is the sum of (m_i - n_j + 1) * n_j over every pair."""
        longest = max(read_lengths)
        site = make_site(
            consensuses=["A" * (longest + slack) for slack in slacks],
            reads=["C" * n for n in read_lengths])
        assert site.unpruned_comparisons() == sum(
            (m - n + 1) * n for m in map(len, site.consensuses)
            for n in read_lengths)

    def test_io_bytes(self):
        site = make_site()
        assert site.input_bytes() == (8 + 9) + 2 * 4
        assert site.output_bytes() == 5

    def test_paper_worst_case_comparison_count(self):
        """Section II-C: "an astonishing worst case of 3,684,352,000
        comparisons for just calculating the whds for one IR target".

        The paper's figure corresponds to C=32, R=256, m=2048 and
        n=250 -- the Illumina read length, not the 256-byte buffer cap:
        32 * 256 * (2048 - 250 + 1) * 250 = 3,684,352,000."""
        site = make_site(
            consensuses=("A" * 2048,) * 32,
            reads=("A" * 250,) * 256,
            quals=(np.full(250, 30, np.uint8),) * 256,
        )
        assert site.unpruned_comparisons() == 3_684_352_000

    def test_consensus_arrays(self):
        arrays = make_site().consensus_arrays()
        assert arrays[0].tolist() == [65, 67, 71, 84, 65, 67, 71, 84]
