"""Per-locus pileups over aligned reads.

A pileup column collects, for one reference position, every read base
aligned across it (with its quality), plus the INDELs anchored there.
Consumers: the variant callers (:mod:`repro.variants`) and BQSR. INDEL
target identification (:mod:`repro.realign.targets`) needs one boolean
per position, not the evidence behind it, and takes the same walk as
counts instead of objects: :func:`mismatch_loci`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.genomics.cigar import CigarOp
from repro.genomics.read import Read


@dataclass
class PileupColumn:
    """All evidence aligned over one reference position."""

    chrom: str
    pos: int
    bases: List[str] = field(default_factory=list)
    quals: List[int] = field(default_factory=list)
    insertions: List[str] = field(default_factory=list)  # inserted bases after pos
    deletions: List[int] = field(default_factory=list)  # deletion lengths after pos

    @property
    def depth(self) -> int:
        return len(self.bases)

    def base_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for base in self.bases:
            counts[base] = counts.get(base, 0) + 1
        return counts

    def base_quality_sums(self) -> Dict[str, int]:
        """Sum of Phred scores supporting each observed base."""
        sums: Dict[str, int] = {}
        for base, qual in zip(self.bases, self.quals):
            sums[base] = sums.get(base, 0) + qual
        return sums


def pileup(reads: Iterable[Read], skip_duplicates: bool = True
           ) -> Dict[Tuple[str, int], PileupColumn]:
    """Build pileup columns for every position any read covers.

    Soft-clipped bases are excluded (they are unaligned by definition);
    insertions attach to the column of the preceding aligned base, and a
    deletion of length L records L at the column before the deleted run,
    matching samtools pileup conventions closely enough for the caller.
    """
    columns: Dict[Tuple[str, int], PileupColumn] = {}

    def column(chrom: str, pos: int) -> PileupColumn:
        key = (chrom, pos)
        existing = columns.get(key)
        if existing is None:
            existing = PileupColumn(chrom=chrom, pos=pos)
            columns[key] = existing
        return existing

    for read in reads:
        if not read.is_mapped:
            continue
        if skip_duplicates and read.is_duplicate:
            continue
        read_offset = 0
        ref_pos = read.pos
        for op, length in read.cigar:
            if op is CigarOp.MATCH:
                for i in range(length):
                    col = column(read.chrom, ref_pos + i)
                    col.bases.append(read.seq[read_offset + i])
                    col.quals.append(int(read.quals[read_offset + i]))
                read_offset += length
                ref_pos += length
            elif op is CigarOp.INSERTION:
                if ref_pos > read.pos:
                    col = column(read.chrom, ref_pos - 1)
                    col.insertions.append(
                        read.seq[read_offset : read_offset + length]
                    )
                read_offset += length
            elif op is CigarOp.DELETION:
                if ref_pos > read.pos:
                    column(read.chrom, ref_pos - 1).deletions.append(length)
                ref_pos += length
            elif op is CigarOp.SOFT_CLIP:
                read_offset += length
    return columns


def mismatch_loci(
    reads: Iterable[Read],
    reference,
    min_depth: int,
    min_fraction: float,
) -> Dict[str, List[int]]:
    """Positions, per contig, where deep coverage mostly mismatches.

    A locus is a column of :func:`pileup` with ``depth >= min_depth``
    and ``mismatches / depth >= min_fraction`` (``min_fraction > 0``)
    against ``reference``, compared on the raw character (``N`` over
    ``A`` mismatches, ``N`` over ``N`` does not). The walk is
    :func:`pileup`'s -- unmapped and duplicate reads skipped, clipped
    and inserted bases in no column, a deletion adding no depth -- but
    it emits M blocks instead of column objects. Mismatches are counted
    where the blocks' bases, laid end to end, differ from the reference
    bases under them; depth is needed only at those columns, as blocks
    begun minus blocks ended. Nothing is as long as the contig. A
    column past the contig end has no reference base and is never a
    locus.
    """
    blocks: Dict[str, Tuple[List[int], List[int], List[str]]] = {}
    for read in reads:
        if not read.is_mapped or read.is_duplicate:
            continue
        starts, ends, bases = blocks.setdefault(read.chrom, ([], [], []))
        read_offset = 0
        ref_pos = read.pos
        for op, length in read.cigar:
            if op is CigarOp.MATCH:
                starts.append(ref_pos)
                ends.append(ref_pos + length)
                bases.append(read.seq[read_offset : read_offset + length])
                read_offset += length
                ref_pos += length
            elif op is CigarOp.DELETION:
                ref_pos += length
            else:  # insertion or soft clip: bases in no column
                read_offset += length
    loci: Dict[str, List[int]] = {}
    for chrom, (starts, ends, bases) in blocks.items():
        if not starts:
            continue
        block_start, block_end = np.array(starts), np.array(ends)
        by_start, by_end = np.sort(block_start), np.sort(block_end)
        # The deepest column is the first of some block.
        deepest = (np.arange(1, by_start.size + 1)
                   - np.searchsorted(by_end, by_start, side="right")).max()
        if deepest < min_depth:
            continue
        contig = reference.fetch(chrom, 0, reference.length(chrom))
        # A block overhanging the contig compares against padding.
        under = "".join([contig[s:e].ljust(e - s)
                         for s, e in zip(starts, ends)])
        wrong = np.flatnonzero(
            np.frombuffer("".join(bases).encode("ascii"), np.uint8)
            != np.frombuffer(under.encode("ascii"), np.uint8)
        )
        # ``wrong`` indexes the end-to-end base stream: find the block
        # each offset falls in and count back from that block's end.
        stops = np.cumsum(block_end - block_start)
        block = np.searchsorted(stops, wrong, side="right")
        columns, mismatches = np.unique(
            block_end[block] - (stops[block] - wrong), return_counts=True
        )
        depth = (np.searchsorted(by_start, columns, side="right")
                 - np.searchsorted(by_end, columns, side="right"))
        found = columns[(columns < len(contig)) & (depth >= min_depth)
                        & (mismatches / depth >= min_fraction)]
        if found.size:
            loci[chrom] = found.tolist()
    return loci


def max_depth(columns: Dict[Tuple[str, int], PileupColumn]) -> int:
    """Deepest column in a pileup (0 when empty)."""
    return max((col.depth for col in columns.values()), default=0)
