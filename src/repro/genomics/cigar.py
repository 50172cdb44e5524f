"""CIGAR strings: compact edit transcripts of read-to-reference alignments.

Primary aligners describe how each read maps onto the reference with a
CIGAR string (e.g. ``"70M2D30M"``: 70 aligned bases, a 2-base deletion
from the read relative to the reference, then 30 more aligned bases). The
INDEL realignment target creator (:mod:`repro.realign.targets`) and
consensus generator (:mod:`repro.realign.consensus`) both consume CIGARs:
targets are seeded at loci where reads carry I/D operations, and
consensuses are built by applying those INDELs to the reference window.

We support the SAM operation subset the pipeline produces:

========  =========================  consumes read  consumes reference
``M``     alignment match/mismatch   yes            yes
``I``     insertion to reference     yes            no
``D``     deletion from reference    no             yes
``S``     soft clip                  yes            no
========  =========================  consumes read  consumes reference
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, List, Tuple


class CigarOp(str, Enum):
    """A single CIGAR operation kind."""

    MATCH = "M"
    INSERTION = "I"
    DELETION = "D"
    SOFT_CLIP = "S"

    @property
    def consumes_read(self) -> bool:
        return self in (CigarOp.MATCH, CigarOp.INSERTION, CigarOp.SOFT_CLIP)

    @property
    def consumes_reference(self) -> bool:
        return self in (CigarOp.MATCH, CigarOp.DELETION)


_CIGAR_TOKEN = re.compile(r"(\d+)([MIDS])")


class CigarError(ValueError):
    """Raised for malformed CIGAR strings."""


@dataclass(frozen=True)
class Cigar:
    """An immutable sequence of ``(CigarOp, length)`` elements.

    The derived lengths are computed once per instance
    (``cached_property`` stores into ``__dict__``, which a frozen
    dataclass allows), so ``Read.end`` is O(1) after its first use;
    equality and hash stay on ``elements`` alone.
    """

    elements: Tuple[Tuple[CigarOp, int], ...]

    def __post_init__(self) -> None:
        for op, length in self.elements:
            if not isinstance(op, CigarOp):
                raise CigarError(f"not a CigarOp: {op!r}")
            if length <= 0:
                raise CigarError(f"CIGAR element length must be positive: {op}{length}")

    @classmethod
    @lru_cache(maxsize=4096)
    def parse(cls, text: str) -> "Cigar":
        """Parse a CIGAR string such as ``"70M2D30M"``.

        Memoised on the text: a sample repeats a handful of CIGARs
        (most reads are one full-length ``M``), instances are immutable,
        and a shared one computes its derived lengths once for every
        read that carries it. A malformed string raises on every call.
        """
        if not text:
            raise CigarError("empty CIGAR string")
        elements: List[Tuple[CigarOp, int]] = []
        position = 0
        for match in _CIGAR_TOKEN.finditer(text):
            if match.start() != position:
                raise CigarError(f"malformed CIGAR {text!r} near offset {position}")
            length, op = match.groups()
            elements.append((CigarOp(op), int(length)))
            position = match.end()
        if position != len(text):
            raise CigarError(f"malformed CIGAR {text!r} near offset {position}")
        return cls(tuple(elements))

    @classmethod
    def from_elements(cls, elements: Iterable[Tuple[CigarOp, int]]) -> "Cigar":
        """Build a Cigar, merging adjacent elements with the same operation."""
        merged: List[Tuple[CigarOp, int]] = []
        for op, length in elements:
            if length == 0:
                continue
            if merged and merged[-1][0] == op:
                merged[-1] = (op, merged[-1][1] + length)
            else:
                merged.append((op, length))
        return cls(tuple(merged))

    @classmethod
    @lru_cache(maxsize=1024)
    def matched(cls, length: int) -> "Cigar":
        """A pure-match CIGAR (``{length}M``), the post-realignment shape
        (memoised: instances are immutable)."""
        return cls(((CigarOp.MATCH, length),))

    def __str__(self) -> str:
        return "".join(f"{length}{op.value}" for op, length in self.elements)

    def __iter__(self) -> Iterator[Tuple[CigarOp, int]]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def read_length(self) -> int:
        """Number of read bases this alignment consumes."""
        return sum(length for op, length in self.elements if op.consumes_read)

    @cached_property
    def reference_length(self) -> int:
        """Number of reference bases this alignment spans."""
        return sum(length for op, length in self.elements if op.consumes_reference)

    @cached_property
    def has_indel(self) -> bool:
        """True if the alignment contains an insertion or deletion."""
        return any(op in (CigarOp.INSERTION, CigarOp.DELETION) for op, _ in self.elements)

    def indels(self) -> List[Tuple[int, CigarOp, int]]:
        """Return ``(reference_offset, op, length)`` for each I/D element.

        The reference offset is relative to the alignment start; for an
        insertion it is the reference position *before* which the inserted
        bases sit.
        """
        found: List[Tuple[int, CigarOp, int]] = []
        ref_offset = 0
        for op, length in self.elements:
            if op in (CigarOp.INSERTION, CigarOp.DELETION):
                found.append((ref_offset, op, length))
            if op.consumes_reference:
                ref_offset += length
        return found

    def aligned_pairs(self) -> List[Tuple[int, int]]:
        """Return ``(read_offset, reference_offset)`` for every M base.

        Soft clips and insertions advance the read offset only; deletions
        advance the reference offset only.
        """
        pairs: List[Tuple[int, int]] = []
        read_offset = 0
        ref_offset = 0
        for op, length in self.elements:
            if op is CigarOp.MATCH:
                pairs.extend(
                    (read_offset + i, ref_offset + i) for i in range(length)
                )
            if op.consumes_read:
                read_offset += length
            if op.consumes_reference:
                ref_offset += length
        return pairs


def validate_cigar_against_read(cigar: Cigar, read_length: int) -> None:
    """Raise :class:`CigarError` unless the CIGAR consumes exactly the read."""
    if cigar.read_length != read_length:
        raise CigarError(
            f"CIGAR {cigar} consumes {cigar.read_length} bases "
            f"but the read has {read_length}"
        )
