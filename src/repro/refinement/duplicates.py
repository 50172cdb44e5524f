"""Duplicate marking (refinement pipeline stage 2).

PCR amplification and optical effects produce reads that are copies of
the same original DNA fragment; counting them as independent evidence
biases variant calls. Following the Picard/GATK convention, reads are
grouped by (contig, unclipped start position, strand) and every read but
the highest-quality one in each group is flagged as a duplicate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.genomics.cigar import CigarOp
from repro.genomics.read import Read


@dataclass(frozen=True)
class DuplicateReport:
    """Outcome of one duplicate-marking pass."""

    reads_examined: int
    duplicates_marked: int


def _unclipped_start(read: Read) -> int:
    """Alignment start adjusted for leading soft clips.

    Two copies of one fragment can be clipped differently; keying on the
    unclipped start keeps them in the same duplicate group.
    """
    leading = 0
    for op, length in read.cigar:
        if op is CigarOp.SOFT_CLIP:
            leading += length
        else:
            break
    return read.pos - leading


def _quality_rank(read: Read) -> Tuple[int, str]:
    """Best read in a group: highest total base quality, then by name."""
    return (-int(read.quals.sum()), read.name)


def mark_duplicates(reads: Sequence[Read]) -> Tuple[List[Read], DuplicateReport]:
    """Return reads with duplicates flagged, preserving input order.

    Unmapped reads are never marked. Reads already flagged stay flagged.
    """
    groups: Dict[Tuple[str, int, bool], List[int]] = defaultdict(list)
    for index, read in enumerate(reads):
        if read.is_mapped:
            groups[(read.chrom, _unclipped_start(read), read.is_reverse)].append(
                index
            )
    marked = list(reads)
    duplicates = 0
    for members in groups.values():
        if len(members) < 2:
            continue
        best = min(members, key=lambda i: _quality_rank(reads[i]))
        for index in members:
            if index == best or marked[index].is_duplicate:
                continue
            marked[index] = marked[index].marked_duplicate()
            duplicates += 1
    return marked, DuplicateReport(
        reads_examined=len(reads), duplicates_marked=duplicates
    )
