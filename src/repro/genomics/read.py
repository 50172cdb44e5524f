"""Aligned-read records.

A :class:`Read` is the unit the whole pipeline moves around: the
primary aligner emits them, the refinement stages (sort, duplicate
marking, INDEL realignment, BQSR) rewrite them in place-ish (we treat
them as immutable and produce updated copies), and the variant caller
piles them up. The fields mirror the SAM columns the paper's pipeline
relies on; INDEL realignment updates ``pos``, ``cigar``, and ``mapq``
("the read is updated with the realigned attributes, such as its read
start position and mapping quality score").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from repro.genomics.cigar import Cigar, validate_cigar_against_read
from repro.genomics.quality import MAX_PHRED
from repro.genomics.sequence import validate_bases


@dataclass(frozen=True)
class Read:
    """One aligned (or unaligned) sequencing read.

    Attributes:
        name: Read name (unique per template).
        chrom: Reference contig name, or ``None`` if unmapped.
        pos: 0-based leftmost reference coordinate of the alignment.
        seq: Base string (``ACGTN``).
        quals: Raw Phred scores, one ``uint8`` per base.
        cigar: Alignment transcript; ``None`` if unmapped.
        mapq: Mapping quality (0-60 convention).
        is_reverse: True if the read aligned to the reverse strand.
        is_duplicate: Set by duplicate marking.
    """

    name: str
    chrom: Optional[str]
    pos: int
    seq: str
    quals: np.ndarray
    cigar: Optional[Cigar] = None
    mapq: int = 60
    is_reverse: bool = False
    is_duplicate: bool = False

    def __post_init__(self) -> None:
        validate_bases(self.seq)
        quals = np.asarray(self.quals)
        if quals.ndim != 1 or quals.size != len(self.seq):
            raise ValueError(
                f"read {self.name!r}: {quals.size} quality scores "
                f"for {len(self.seq)} bases"
            )
        if quals.size:
            # Range-check at the input's own width: narrowing first
            # would wrap 300 to a legal-looking 44.
            if quals.dtype != np.uint8 and quals.min() < 0:
                raise ValueError(f"read {self.name!r}: negative Phred score")
            if quals.max() > MAX_PHRED:
                raise ValueError(
                    f"read {self.name!r}: Phred score above {MAX_PHRED}"
                )
        object.__setattr__(self, "quals", quals.astype(np.uint8, copy=False))
        if self.cigar is not None:
            validate_cigar_against_read(self.cigar, len(self.seq))
        if self.is_mapped and self.pos < 0:
            raise ValueError(f"read {self.name!r}: negative mapped position {self.pos}")
        if not 0 <= self.mapq <= 254:
            raise ValueError(f"read {self.name!r}: mapq {self.mapq} outside [0, 254]")

    @property
    def is_mapped(self) -> bool:
        return self.chrom is not None and self.cigar is not None

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def end(self) -> int:
        """0-based exclusive reference end coordinate of the alignment."""
        if not self.is_mapped:
            raise ValueError(f"read {self.name!r} is unmapped")
        return self.pos + self.cigar.reference_length

    @property
    def span(self) -> Tuple[int, int]:
        """``(start, end)`` reference interval, 0-based half-open."""
        return (self.pos, self.end)

    @property
    def has_indel(self) -> bool:
        return self.cigar is not None and self.cigar.has_indel

    def overlaps(self, start: int, end: int) -> bool:
        """True if the alignment's interval intersects ``[start, end)``.

        The paper's target semantics ("reads that have either start or end
        position landing in this region") are implemented by
        :meth:`anchored_in`; this is plain interval overlap.
        """
        return self.is_mapped and self.pos < end and self.end > start

    def anchored_in(self, start: int, end: int) -> bool:
        """True if the read's start or end position lands inside ``[start, end)``.

        This is the paper's membership rule for an IR target: "All reads
        that overlap this region (reads that have either start or end
        position landing in this region) are considered reads for this
        site."
        """
        if not self.is_mapped:
            return False
        last = self.end - 1
        return start <= self.pos < end or start <= last < end

    def realigned(
        self,
        new_pos: int,
        new_cigar: Optional[Cigar] = None,
        new_mapq: Optional[int] = None,
    ) -> "Read":
        """Return a copy realigned to ``new_pos``.

        The accelerator returns the read's new offset against the picked
        consensus; the host reconstructs the reference-space CIGAR from
        the consensus's INDEL (see
        :func:`repro.realign.consensus.realigned_read_placement`). When
        the read does not span the INDEL the alignment is gap-free and
        ``new_cigar`` may be omitted.
        """
        return replace(
            self,
            pos=new_pos,
            cigar=new_cigar if new_cigar is not None else Cigar.matched(len(self.seq)),
            mapq=self.mapq if new_mapq is None else new_mapq,
        )

    def marked_duplicate(self) -> "Read":
        """Return a copy flagged as a PCR/optical duplicate."""
        return replace(self, is_duplicate=True)

    def with_quals(self, quals: np.ndarray) -> "Read":
        """Return a copy with recalibrated quality scores (used by BQSR)."""
        return replace(self, quals=quals)


def coordinate_key(read: Read) -> Tuple[str, int, bool]:
    """Sort key for coordinate order: (contig, position, strand)."""
    if not read.is_mapped:
        return ("￿", 1 << 60, False)
    return (read.chrom, read.pos, read.is_reverse)
