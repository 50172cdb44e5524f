"""Coordinate sort (refinement pipeline stage 1).

Sorting brings reads into reference order so downstream stages (duplicate
marking, target identification, pileups) can stream. Matches samtools
``sort`` semantics at the level the pipeline needs: contig order as given
by the reference, then position, then strand, with unmapped reads last.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome


def sort_reads(
    reads: Sequence[Read],
    reference: Optional[ReferenceGenome] = None,
) -> List[Read]:
    """Return reads in coordinate order.

    With a reference, contigs sort in reference declaration order (the
    SAM convention); otherwise lexicographically. The sort is stable, so
    reads at the same coordinate keep their input order.
    """
    if reference is not None:
        contig_rank = {name: i for i, name in enumerate(reference.contig_names)}
    else:
        contig_rank = {}

    def key(read: Read) -> Tuple:
        if not read.is_mapped:
            return (1, 0, 0, False)
        rank = contig_rank.get(read.chrom)
        if rank is None:
            # Unknown contigs sort after known ones, by name.
            return (0, (1, read.chrom), read.pos, read.is_reverse)
        return (0, (0, rank), read.pos, read.is_reverse)

    return sorted(reads, key=key)
