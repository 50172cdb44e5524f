"""Genomic interval arithmetic.

Half-open ``(chrom, start, end)`` intervals with the operations the
pipeline's interval-shaped stages need: normalisation (sort + merge),
complement against a reference, and point-cluster flushing (the
primitive under IR target creation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.genomics.reference import ReferenceGenome


@dataclass(frozen=True, order=True)
class GenomicInterval:
    """One 0-based half-open interval."""

    chrom: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"invalid interval {self.chrom}:{self.start}-{self.end}"
            )

    @property
    def span(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "GenomicInterval") -> bool:
        return (self.chrom == other.chrom
                and self.start < other.end and other.start < self.end)

    def contains(self, chrom: str, pos: int) -> bool:
        return chrom == self.chrom and self.start <= pos < self.end


def merge_intervals(
    intervals: Iterable[GenomicInterval], gap: int = 0
) -> List[GenomicInterval]:
    """Sort and merge intervals closer than ``gap`` (0 = touching)."""
    if gap < 0:
        raise ValueError("gap must be non-negative")
    merged: List[GenomicInterval] = []
    for interval in sorted(intervals):
        if (merged
                and merged[-1].chrom == interval.chrom
                and interval.start <= merged[-1].end + gap):
            last = merged.pop()
            merged.append(GenomicInterval(
                last.chrom, last.start, max(last.end, interval.end)
            ))
        else:
            merged.append(interval)
    return merged


def complement(
    intervals: Sequence[GenomicInterval], reference: ReferenceGenome
) -> List[GenomicInterval]:
    """Reference regions *not* covered by ``intervals``."""
    merged = merge_intervals(intervals)
    by_chrom: Dict[str, List[GenomicInterval]] = {}
    for interval in merged:
        by_chrom.setdefault(interval.chrom, []).append(interval)
    result: List[GenomicInterval] = []
    for contig in reference:
        cursor = 0
        for interval in by_chrom.get(contig.name, []):
            if interval.start > cursor:
                result.append(GenomicInterval(contig.name, cursor,
                                              interval.start))
            cursor = max(cursor, interval.end)
        if cursor < len(contig):
            result.append(GenomicInterval(contig.name, cursor, len(contig)))
    return result


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
