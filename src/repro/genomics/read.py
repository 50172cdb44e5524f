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

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.genomics.cigar import Cigar, validate_cigar_against_read
from repro.genomics.quality import MAX_PHRED
from repro.genomics.sequence import SequenceError, validate_bases

#: One row of :meth:`Read.batch`: the fields in ``Read``'s order, with
#: ``quals`` replaced by how many of the batch's scores are this read's.
BatchRow = Tuple[str, Optional[str], int, str, int, Optional[Cigar], int,
                 bool, bool]


class RowError(ValueError):
    """The first row of a :meth:`Read.batch` that is not a valid read:
    ``row`` is its index, ``error`` what ``Read`` raised for it."""

    def __init__(self, row: int, error: ValueError):
        super().__init__(str(error))
        self.row = row
        self.error = error


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

    @classmethod
    def batch(cls, rows: Sequence[BatchRow], scores: np.ndarray) -> "ReadBatch":
        """Check one read per row; read ``i``'s ``quals`` is a view of
        its ``rows[i][4]`` scores, which follow the previous rows' in
        the 1-D ``uint8`` buffer ``scores``.

        The invariants ``__post_init__`` checks per read are checked
        here once per field over the whole batch. If a check fails,
        every row is built through ``__post_init__`` instead, and the
        first that raises is :class:`RowError`, with the message that
        row alone raises; when none does, the batch keeps those reads.
        The returned :class:`ReadBatch` cannot fail when it is built.
        """
        if not rows:
            return ReadBatch(rows, scores)
        _names, _chroms, positions, seqs, counts, cigars, mapqs, *_flags = \
            zip(*rows)
        stops = list(accumulate(counts))
        if _valid_batch(seqs, scores, counts, stops[-1], cigars, positions,
                        mapqs):
            return ReadBatch(rows, scores)
        reads = []
        for index, (row, stop) in enumerate(zip(rows, stops)):
            name, chrom, pos, seq, count, *rest = row
            try:
                reads.append(cls(name, chrom, pos, seq,
                                 scores[stop - count:stop], *rest))
            except ValueError as error:
                raise RowError(index, error) from None
        return ReadBatch(rows, scores, reads)

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


class ReadBatch:
    """Rows that :meth:`Read.batch` checked, and the one read-only
    ``scores`` buffer their qualities are slices of. The reads are
    built only when :meth:`reads` is called, so a caller that needs
    only :attr:`has_indel` never builds one."""

    __slots__ = ("rows", "scores", "_reads")

    def __init__(self, rows: Sequence[BatchRow], scores: np.ndarray,
                 reads: Optional[List[Read]] = None):
        self.rows = rows
        self.scores = scores
        self._reads = reads

    @property
    def has_indel(self) -> bool:
        """True if some mapped row's CIGAR carries an I or D, whether or
        not the read is a duplicate or anchored in any target."""
        return any(row[5] is not None and row[5].has_indel
                   for row in self.rows)

    def reads(self) -> List[Read]:
        """One read per row, built without ``__post_init__``, whose
        invariants :meth:`Read.batch` checked: this is the only code
        that bypasses it."""
        if self._reads is not None:
            return self._reads
        # Per-field object.__setattr__, as the generated __init__ does:
        # touching read.__dict__ instead would give every read a dict of
        # its own, 64 bytes more than its inline attribute values.
        new, put, scores = object.__new__, object.__setattr__, self.scores
        reads, start = [], 0
        for (name, chrom, pos, seq, count, cigar, mapq, is_reverse,
             is_duplicate) in self.rows:
            read = new(Read)
            put(read, "name", name)
            put(read, "chrom", chrom)
            put(read, "pos", pos)
            put(read, "seq", seq)
            put(read, "quals", scores[start:start + count])
            put(read, "cigar", cigar)
            put(read, "mapq", mapq)
            put(read, "is_reverse", is_reverse)
            put(read, "is_duplicate", is_duplicate)
            reads.append(read)
            start += count
        self._reads = reads
        return reads


def _valid_batch(seqs, scores, counts, total, cigars, positions,
                 mapqs) -> bool:
    """True if no row of a :meth:`Read.batch` can fail ``__post_init__``
    or be changed by it (a negative POS of an unmapped read, legal,
    makes it False too)."""
    try:
        validate_bases("".join(seqs))
    except SequenceError:
        return False
    lengths = tuple(map(len, seqs))
    return (
        counts == lengths
        and scores.dtype == np.uint8 and scores.ndim == 1
        and scores.size == total
        and not (total and scores.max() > MAX_PHRED)
        and all(cigar is None or cigar.read_length == length
                for cigar, length in zip(cigars, lengths))
        and min(positions) >= 0
        and 0 <= min(mapqs) and max(mapqs) <= 254
    )
