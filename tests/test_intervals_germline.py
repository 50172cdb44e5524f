"""Unit tests for interval arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genomics.intervals import (
    GenomicInterval,
    cluster_points,
    complement,
    merge_intervals,
)
from repro.genomics.reference import ReferenceGenome


def iv(chrom, start, end):
    return GenomicInterval(chrom, start, end)


class TestIntervals:
    def test_validation(self):
        with pytest.raises(ValueError):
            iv("1", 5, 5)
        with pytest.raises(ValueError):
            iv("1", -1, 5)

    def test_merge_touching_and_gapped(self):
        merged = merge_intervals([iv("1", 0, 10), iv("1", 10, 20),
                                  iv("1", 25, 30)])
        assert merged == [iv("1", 0, 20), iv("1", 25, 30)]
        with_gap = merge_intervals([iv("1", 0, 10), iv("1", 13, 20)], gap=5)
        assert with_gap == [iv("1", 0, 20)]

    def test_merge_respects_chromosomes(self):
        merged = merge_intervals([iv("1", 0, 10), iv("2", 5, 15)])
        assert len(merged) == 2

    def test_complement(self):
        reference = ReferenceGenome.from_dict({"1": "A" * 100})
        holes = complement([iv("1", 10, 20), iv("1", 50, 60)], reference)
        assert holes == [iv("1", 0, 10), iv("1", 20, 50), iv("1", 60, 100)]

    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 40)),
                    max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_merge_invariants(self, raw):
        intervals = [iv("1", s, s + l) for s, l in raw]
        merged = merge_intervals(intervals)
        # Sorted and disjoint.
        for a, b in zip(merged, merged[1:]):
            assert a.end < b.start or a.chrom != b.chrom
        # Every input point stays covered.
        for interval in intervals:
            assert any(m.start <= interval.start and interval.end <= m.end
                       for m in merged)

    def test_cluster_points_matches_targets_semantics(self):
        intervals = cluster_points([100, 150, 400], merge_distance=100,
                                   flank=10, contig_length=1_000,
                                   max_span=500)
        assert intervals == [(90, 161), (390, 411)]

    def test_cluster_points_splits_oversized(self):
        intervals = cluster_points(list(range(0, 300, 10)),
                                   merge_distance=20, flank=0,
                                   contig_length=1_000, max_span=100)
        assert all(end - start <= 100 for start, end in intervals)

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            cluster_points([1], -1, 0, 10, 10)
        with pytest.raises(ValueError):
            cluster_points([1], 0, 0, 10, 0)
