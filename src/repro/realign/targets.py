"""INDEL realignment target identification (RealignerTargetCreator).

Paper Appendix: *"Generating t number of IR targets is logically
equivalent to slicing the reference into t number of slices and
performing IR on each slice."* Targets are seeded where the aligned reads
show evidence that local realignment could help:

1. loci where a read's CIGAR carries an insertion or deletion, and
2. loci where many reads disagree with the reference (mismatch
   clusters -- the footprint of an INDEL a confused aligner absorbed
   into a gap-free alignment).

Nearby loci merge into one interval so every read is realigned at most
once; intervals are clamped so the eventual consensus window respects the
hardware's 2048-byte consensus limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.align.pileup import mismatch_loci
from repro.genomics.read import (
    CONTIG,
    DELETION,
    INSERTION,
    Read,
    ReadBatch,
    as_batch,
)
from repro.genomics.reference import ReferenceGenome
from repro.realign.site import SiteLimits, PAPER_LIMITS


@dataclass(frozen=True, order=True)
class RealignmentTarget:
    """One IR target interval, 0-based half-open."""

    chrom: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"invalid target interval {self.chrom}:{self.start}-{self.end}"
            )

    @property
    def span(self) -> int:
        return self.end - self.start

    def describe(self) -> str:
        # 1-based inclusive, the paper's display convention (e.g. 22:10000).
        return f"{self.chrom}:{self.start + 1}-{self.end}"


@dataclass(frozen=True)
class TargetCreatorConfig:
    """Knobs of target identification."""

    merge_distance: int = 100  # loci closer than this share a target
    # Padding around the outermost evidence locus. At least one read
    # length, so the paper's membership rule ("reads that have either
    # start or end position landing in this region") captures every
    # read overlapping the evidence: a target at least as wide as a
    # read anchors all of its overlapping reads. The paper's example
    # target (Figure 10) spans 2000 bp for 250 bp reads.
    flank: int = 250
    mismatch_min_depth: int = 4
    mismatch_min_fraction: float = 0.5
    use_mismatch_clusters: bool = True
    limits: SiteLimits = PAPER_LIMITS

    def __post_init__(self) -> None:
        if self.merge_distance < 0 or self.flank < 0:
            raise ValueError("merge_distance and flank must be non-negative")
        if not 0 < self.mismatch_min_fraction <= 1:
            raise ValueError("mismatch_min_fraction must be in (0, 1]")


def _indel_loci(batch: ReadBatch) -> Dict[str, List[int]]:
    """Reference positions of every I/D CIGAR element, per contig."""
    read, ref_start, _offset = batch.layout()
    kinds = batch.ops[0]
    carried = (kinds == INSERTION) | (kinds == DELETION)
    contig, loci = batch.columns[CONTIG][read[carried]], ref_start[carried]
    return {batch.contigs[k]: loci[contig == k].tolist()
            for k in np.flatnonzero(np.bincount(contig)).tolist()}


def cluster_points(
    points: Sequence[int],
    merge_distance: int,
    flank: int,
    contig_length: int,
    max_span: int,
) -> List[Tuple[int, int]]:
    """Cluster sorted loci into padded, clamped, size-capped intervals.

    The primitive under target creation: loci within ``merge_distance``
    share a cluster, each cluster grows ``flank`` on both sides, clamps
    to the contig, and splits at ``max_span``.
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


def identify_targets(
    reads: Union[Sequence[Read], ReadBatch],
    reference: ReferenceGenome,
    config: TargetCreatorConfig = TargetCreatorConfig(),
) -> List[RealignmentTarget]:
    """Return the sorted, disjoint IR targets for a set of aligned reads
    (a list, or the columns of a :class:`~repro.genomics.read.ReadBatch`).

    Mismatch clusters are counted per contig in arrays
    (:func:`repro.align.pileup.mismatch_loci`), not read off one
    :class:`~repro.align.pileup.PileupColumn` per position as they were
    before; the targets are the same on every input but one. Reads
    overhanging the contig end used to be ignored while fewer than
    ``mismatch_min_depth`` of them overhung and to raise ``IndexError``
    (no reference base to fetch) from that depth on; now a column past
    the contig end is never evidence, whatever its depth.
    """
    batch = as_batch(reads, reference)
    evidence = _indel_loci(batch)
    if config.use_mismatch_clusters:
        for chrom, positions in mismatch_loci(
            batch, reference, config.mismatch_min_depth,
            config.mismatch_min_fraction,
        ).items():
            evidence.setdefault(chrom, []).extend(positions)
    # Leave room for flanking pad applied at consensus-window construction.
    max_span = config.limits.max_consensus_length // 2
    targets: List[RealignmentTarget] = []
    for chrom, loci in evidence.items():
        contig_length = reference.length(chrom)
        for start, end in cluster_points(
            loci, config.merge_distance, config.flank, contig_length, max_span
        ):
            targets.append(RealignmentTarget(chrom, start, end))
    return sorted(targets)


def reads_for_target(
    target: RealignmentTarget, reads: Sequence[Read]
) -> List[Read]:
    """Reads anchored in the target per the paper's membership rule.

    Membership is per-contig: ``anchored_in`` compares coordinates
    only, so without the ``chrom`` check a read from another contig at
    numerically overlapping positions would be realigned against this
    target's window.
    """
    return [
        read
        for read in reads
        if read.is_mapped
        and read.chrom == target.chrom
        and not read.is_duplicate
        and read.anchored_in(target.start, target.end)
    ]
