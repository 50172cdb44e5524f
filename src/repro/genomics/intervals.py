"""Genomic interval arithmetic: point-cluster flushing, the primitive
under IR target creation (:mod:`repro.realign.targets`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def cluster_points(
    points: Sequence[int],
    merge_distance: int,
    flank: int,
    contig_length: int,
    max_span: int,
) -> List[Tuple[int, int]]:
    """Cluster sorted loci into padded, clamped, size-capped intervals.

    The primitive under IR target creation: loci within
    ``merge_distance`` share a cluster, each cluster grows ``flank`` on
    both sides, clamps to the contig, and splits at ``max_span``.
    """
    if merge_distance < 0 or flank < 0:
        raise ValueError("merge_distance and flank must be non-negative")
    if max_span <= 0 or contig_length <= 0:
        raise ValueError("max_span and contig_length must be positive")
    intervals: List[Tuple[int, int]] = []

    def flush(lo: int, hi: int) -> None:
        start = max(0, lo - flank)
        end = min(contig_length, hi + 1 + flank)
        while end - start > max_span:
            intervals.append((start, start + max_span))
            start += max_span
        if end > start:
            intervals.append((start, end))

    cluster_start = cluster_end = None
    for locus in sorted(set(points)):
        if cluster_start is None:
            cluster_start = cluster_end = locus
        elif locus - cluster_end <= merge_distance:
            cluster_end = locus
        else:
            flush(cluster_start, cluster_end)
            cluster_start = cluster_end = locus
    if cluster_start is not None:
        flush(cluster_start, cluster_end)
    return intervals
