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
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.align.pileup import mismatch_loci
from repro.genomics.read import Read
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


def _indel_loci(reads: Iterable[Read]) -> Dict[str, List[int]]:
    """Reference positions of every I/D CIGAR element, per contig."""
    loci: Dict[str, List[int]] = {}
    for read in reads:
        if not read.is_mapped or not read.has_indel:
            continue
        for ref_offset, _op, _length in read.cigar.indels():
            loci.setdefault(read.chrom, []).append(read.pos + ref_offset)
    return loci


def _merge_loci(
    loci: Sequence[int], merge_distance: int, flank: int,
    contig_length: int, max_span: int,
) -> List[Tuple[int, int]]:
    """Merge sorted loci into padded, clamped, size-capped intervals."""
    from repro.genomics.intervals import cluster_points

    return cluster_points(loci, merge_distance, flank, contig_length,
                          max_span)


def identify_targets(
    reads: Sequence[Read],
    reference: ReferenceGenome,
    config: TargetCreatorConfig = TargetCreatorConfig(),
    known_sites: Sequence = (),
) -> List[RealignmentTarget]:
    """Return the sorted, disjoint IR targets for a set of aligned reads.

    ``known_sites`` optionally seeds targets at catalogued INDELs (GATK's
    RealignerTargetCreator accepts known-variant files such as the Mills
    INDEL catalogue for the same purpose): each entry is either a
    :class:`~repro.genomics.variants.Variant` or a ``(chrom, pos)``
    pair. Known sites are merged with read evidence, so realignment
    can trigger even where every carrier read was misaligned gap-free.

    Mismatch clusters are counted per contig in arrays
    (:func:`repro.align.pileup.mismatch_loci`), not read off one
    :class:`~repro.align.pileup.PileupColumn` per position as they were
    before; the targets are the same on every input but one. Reads
    overhanging the contig end used to be ignored while fewer than
    ``mismatch_min_depth`` of them overhung and to raise ``IndexError``
    (no reference base to fetch) from that depth on; now a column past
    the contig end is never evidence, whatever its depth.
    """
    evidence = _indel_loci(reads)
    if config.use_mismatch_clusters:
        for chrom, positions in mismatch_loci(
            reads, reference, config.mismatch_min_depth,
            config.mismatch_min_fraction,
        ).items():
            evidence.setdefault(chrom, []).extend(positions)
    for site in known_sites:
        if hasattr(site, "chrom") and hasattr(site, "pos"):
            chrom, pos = site.chrom, site.pos
        else:
            chrom, pos = site
        if chrom in reference and 0 <= pos < reference.length(chrom):
            evidence.setdefault(chrom, []).append(int(pos))
    # Leave room for flanking pad applied at consensus-window construction.
    max_span = config.limits.max_consensus_length // 2
    targets: List[RealignmentTarget] = []
    for chrom, loci in evidence.items():
        contig_length = reference.length(chrom)
        for start, end in _merge_loci(
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
