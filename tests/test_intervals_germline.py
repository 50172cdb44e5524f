"""Unit tests for interval arithmetic."""

import pytest

from repro.realign.targets import cluster_points


class TestIntervals:
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
