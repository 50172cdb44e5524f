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
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.genomics.cigar import Cigar, CigarOp, validate_cigar_against_read
from repro.genomics.quality import MAX_PHRED, PHRED_OFFSET
from repro.genomics.sequence import validate_bases


@dataclass(frozen=True, slots=True)
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


#: SAM flag bits realignment reads (the batch's ``FLAG`` column keeps
#: only these, with ``FLAG_UNMAPPED`` set for every unmapped read).
FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10
FLAG_DUPLICATE = 0x400

#: The columns of a :class:`ReadBatch`, the rows of its ``columns``
#: block, in the order the compiled tokenizer writes them
#: (:func:`repro.engine.native.sam_ingester`): the alignment line's
#: span, the end of its QNAME and the starts of its SEQ and QUAL (byte
#: offsets into the buffer the lines came from), the read length, then
#: the fields realignment reads. An unmapped read has ``CONTIG`` -1 and
#: ``POS`` = ``END`` = 0.
(LINE_AT, LINE_END, NAME_END, SEQ_AT, QUAL_AT, LENGTH, FLAG, POS, MAPQ,
 CONTIG, END) = range(11)
COLUMNS = 11
#: CIGAR element kinds by their code in a batch's ``ops[0]``.
OPS = (CigarOp.MATCH, CigarOp.INSERTION, CigarOp.DELETION, CigarOp.SOFT_CLIP)
MATCH, INSERTION, DELETION, SOFT_CLIP = range(4)
_OP_LETTERS = "".join(op.value for op in OPS)
#: Mismatch blocks :meth:`ReadBatch.mismatches` compares per pass: its
#: joined strings stay a few MB however large the batch.
MISMATCH_BLOCKS = 4096


@lru_cache(maxsize=4096)
def cigar_codes(cigar: Cigar) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``cigar``'s elements as batch ``ops``: kind codes, lengths."""
    return (tuple(OPS.index(op) for op, _ in cigar.elements),
            tuple(length for _, length in cigar.elements))


def cigar_string(kinds: Sequence[int], lengths: Sequence[int]) -> str:
    """The CIGAR text of elements given as batch ``ops``: kind codes,
    lengths."""
    return "".join(f"{length}{_OP_LETTERS[kind]}"
                   for kind, length in zip(kinds, lengths))


@lru_cache(maxsize=4096)
def _cigar_of(ops: bytes) -> Cigar:
    """The CIGAR of a read's ``ops`` columns (as ``int64`` bytes)."""
    kinds, lengths = np.frombuffer(ops, np.int64).reshape(2, -1).tolist()
    return Cigar(tuple(zip(map(OPS.__getitem__, kinds), lengths)))


def _unchecked(name, chrom, pos, seq, quals, cigar, mapq, is_reverse,
               is_duplicate) -> Read:
    """A read built without ``__post_init__``, for fields a batch has
    checked: per-field ``object.__setattr__``, as the generated
    ``__init__`` of a frozen dataclass does."""
    read, put = object.__new__(Read), object.__setattr__
    put(read, "name", name)
    put(read, "chrom", chrom)
    put(read, "pos", pos)
    put(read, "seq", seq)
    put(read, "quals", quals)
    put(read, "cigar", cigar)
    put(read, "mapq", mapq)
    put(read, "is_reverse", is_reverse)
    put(read, "is_duplicate", is_duplicate)
    return read


class ReadBatch:
    """Checked reads as ``int64`` columns, and :class:`Read` objects
    only when :meth:`reads` is asked for them.

    ``columns`` is the ``(COLUMNS, n)`` block (one row per column named
    above), ``ops`` the ``(2, m)`` CIGAR elements of every mapped read
    (kind code, length), read ``i``'s at ``op_at[i]:op_at[i + 1]``, and
    ``contigs`` names the ``CONTIG`` indices. The front half
    (:mod:`repro.realign.targets`, :func:`repro.align.pileup
    .mismatch_loci`, :meth:`repro.realign.realigner.IndelRealigner
    .build_sites`) reads only these. Two producers fill one:

    - SAM bytes -- a file's, or a served job's body -- read by the
      compiled tokenizer (:func:`repro.engine.native.sam_ingester`) or
      by its Python twin (:func:`repro.genomics.samlite.ingest`), which
      fill the same columns. The compiled pass also fills the
      :meth:`mismatches` columns;
    - :meth:`of`, a list of reads (the API callers).

    Either way the spans are byte offsets into ``buffer``, which
    :class:`~repro.realign.site.RealignmentSite` addresses in place and
    :meth:`reads` decodes.
    """

    __slots__ = ("contigs", "buffer", "columns", "op_at", "ops",
                 "_mismatches", "_layout", "_reads")

    def __init__(self, contigs: Sequence[str], *, buffer: bytes,
                 columns: np.ndarray, op_at: np.ndarray, ops: np.ndarray,
                 mismatches=None):
        self.contigs = tuple(contigs)
        self.buffer = buffer
        self.columns, self.op_at, self.ops = columns, op_at, ops
        self._mismatches = mismatches
        self._layout = None
        self._reads = None

    @classmethod
    def of(cls, reads: Sequence[Read],
           contigs: Sequence[str] = ()) -> "ReadBatch":
        """The batch of ``reads``. ``contigs`` orders the ``CONTIG`` indices
        (names it lacks follow in order of appearance). The buffer is
        the reads' UTF-8 names, then their bases, then their Sanger
        (Phred+33) characters, each laid end to end; a read's line is
        its name."""
        reads = list(reads)
        index = {name: i for i, name in enumerate(contigs)}
        rows, codes, lengths, op_at = [], [], [], [0]
        for read in reads:
            flag = (read.is_reverse * FLAG_REVERSE
                    | read.is_duplicate * FLAG_DUPLICATE)
            if read.is_mapped:
                contig = index.setdefault(read.chrom, len(index))
                rows.append((len(read.seq), flag, read.pos, read.mapq,
                             contig, read.end))
                kinds, spans = cigar_codes(read.cigar)
                codes.extend(kinds)
                lengths.extend(spans)
            else:
                rows.append((len(read.seq), flag | FLAG_UNMAPPED, 0,
                             read.mapq, -1, 0))
            op_at.append(len(codes))
        columns = np.zeros((COLUMNS, len(reads)), dtype=np.int64)
        names = [read.name.encode("utf-8") for read in reads]
        bases = "".join([read.seq for read in reads]).encode("ascii")
        chars = np.concatenate([np.zeros(0, np.uint8)]
                               + [read.quals for read in reads])
        if rows:
            columns[LENGTH:] = np.array(rows, dtype=np.int64).T
            ends = np.cumsum(np.fromiter(map(len, names), np.int64,
                                         len(names)))
            columns[[LINE_END, NAME_END]] = ends
            columns[LINE_AT] = np.concatenate(([0], ends[:-1]))
            columns[SEQ_AT] = (ends[-1] + np.cumsum(columns[LENGTH])
                               - columns[LENGTH])
            columns[QUAL_AT] = columns[SEQ_AT] + len(bases)
        return cls(index, columns=columns,
                   buffer=b"".join(names) + bases
                   + (chars + np.uint8(PHRED_OFFSET)).tobytes(),
                   op_at=np.array(op_at, dtype=np.int64),
                   ops=np.array([codes, lengths],
                                dtype=np.int64).reshape(2, -1))

    def __len__(self) -> int:
        return self.columns.shape[1]

    def layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(read, ref_start, read_offset)`` of every CIGAR element: its
        read's index, the reference position it starts at and how many
        of the read's bases precede it."""
        if self._layout is None:
            kinds, lengths = self.ops
            read = np.repeat(np.arange(len(self)), np.diff(self.op_at))
            first = self.op_at[:-1][read]

            def starts(step):
                before = np.cumsum(step) - step
                return before - before[first]

            on_ref = np.where((kinds == MATCH) | (kinds == DELETION),
                              lengths, 0)
            on_read = np.where(kinds != DELETION, lengths, 0)
            self._layout = (read,
                            self.columns[POS][read] + starts(on_ref),
                            starts(on_read))
        return self._layout

    @property
    def indel(self) -> np.ndarray:
        """Per read: whether its CIGAR carries an I or D (mapped reads
        only have CIGAR elements here)."""
        kinds = self.ops[0]
        carriers = self.layout()[0][(kinds == INSERTION)
                                    | (kinds == DELETION)]
        return np.bincount(carriers, minlength=len(self)) > 0

    @property
    def has_indel(self) -> bool:
        """True if some mapped read's CIGAR carries an I or D, whether or
        not the read is a duplicate or anchored in any target."""
        kinds = self.ops[0]
        return bool(((kinds == INSERTION) | (kinds == DELETION)).any())

    def _bases(self, reads, offsets, lengths) -> bytes:
        """Bases ``offsets[j]`` .. ``offsets[j] + lengths[j]`` of read
        ``reads[j]`` for each ``j``, laid end to end, without building
        a read."""
        view = memoryview(self.buffer)
        return b"".join([view[at:at + n] for at, n in zip(
            (self.columns[SEQ_AT][reads] + offsets).tolist(),
            lengths.tolist())])

    def names(self, indices: np.ndarray) -> list:
        """The QNAMEs of reads ``indices`` as the buffer's bytes, without
        building a read (UTF-8, so they sort as the text does)."""
        buffer = self.buffer
        return [buffer[at:end] for at, end in zip(
            self.columns[LINE_AT][indices].tolist(),
            self.columns[NAME_END][indices].tolist())]

    def mismatches(self, reference) -> Tuple[np.ndarray, np.ndarray]:
        """``(read, pos)``: each base of a mapped, non-duplicate read's M
        blocks that differs from ``reference`` (raw characters: ``N``
        over ``A`` differs, ``N`` over ``N`` does not), as its read's
        index and its reference position, in read order. A base past
        its contig's end (or on a contig ``reference`` lacks) always
        differs.

        The compiled tokenizer's are handed over on the first call and
        not kept: they are the batch's largest columns, and target
        identification reads them once. Later calls, and the other
        producers, compare here, :data:`MISMATCH_BLOCKS` blocks at a
        time."""
        if self._mismatches is not None:
            found, self._mismatches = self._mismatches, None
            return found
        read, ref_start, read_offset = self.layout()
        kinds, lengths = self.ops
        flags = self.columns[FLAG]
        keep = (kinds == MATCH) & ((flags[read] & FLAG_DUPLICATE) == 0)
        read, ref_start = read[keep], ref_start[keep]
        read_offset, lengths = read_offset[keep], lengths[keep]
        contig = self.columns[CONTIG][read]
        sequences = [reference.contig(name).sequence if name in reference
                     else "" for name in self.contigs]
        found_read, found_pos = [np.zeros(0, np.int64)], [np.zeros(0,
                                                                   np.int64)]
        for lo in range(0, read.size, MISMATCH_BLOCKS):
            part = slice(lo, lo + MISMATCH_BLOCKS)
            bases = self._bases(read[part], read_offset[part], lengths[part])
            under = "".join([sequences[k][s:s + n].ljust(n) for k, s, n in zip(
                contig[part].tolist(), ref_start[part].tolist(),
                lengths[part].tolist())])
            wrong = np.flatnonzero(
                np.frombuffer(bases, np.uint8)
                != np.frombuffer(under.encode("ascii"), np.uint8))
            # ``wrong`` indexes the blocks' bases laid end to end
            stops = np.cumsum(lengths[part])
            block = np.searchsorted(stops, wrong, side="right")
            found_read.append(read[part][block])
            found_pos.append(ref_start[part][block] + wrong
                             - (stops - lengths[part])[block])
        return np.concatenate(found_read), np.concatenate(found_pos)

    def _make(self, index: int, quals: np.ndarray) -> Read:
        """Read ``index`` decoded from ``buffer``, with ``quals``."""
        (line_at, _end, name_end, seq_at, _qual_at, length, flag, pos, mapq,
         contig, _ref_end) = self.columns[:, index].tolist()
        buffer = self.buffer
        cigar = chrom = None
        if contig >= 0:
            chrom = self.contigs[contig]
            first, stop = self.op_at[index:index + 2].tolist()
            cigar = _cigar_of(self.ops[:, first:stop].tobytes())
        return _unchecked(buffer[line_at:name_end].decode("utf-8"), chrom,
                          pos, buffer[seq_at:seq_at + length].decode("ascii"),
                          quals, cigar, mapq, bool(flag & FLAG_REVERSE),
                          bool(flag & FLAG_DUPLICATE))

    def reads(self) -> List[Read]:
        """Every read, in order, built on first use; their ``quals`` are
        read-only views of one array decoded in one pass."""
        if self._reads is None:
            starts, lengths = self.columns[[QUAL_AT, LENGTH]].tolist()
            view = memoryview(self.buffer)
            chars = b"".join([view[at:at + n]
                              for at, n in zip(starts, lengths)])
            scores = np.subtract(np.frombuffer(chars, np.uint8),
                                 PHRED_OFFSET, dtype=np.uint8)
            scores.flags.writeable = False
            stops = np.cumsum(lengths).tolist()
            self._reads = [self._make(index, scores[stop - length:stop])
                           for index, (length, stop)
                           in enumerate(zip(lengths, stops))]
        return self._reads


def as_batch(reads, reference=None) -> ReadBatch:
    """``reads`` if it is a :class:`ReadBatch`, else :meth:`ReadBatch.of`
    them, contigs in ``reference``'s order when given."""
    if isinstance(reads, ReadBatch):
        return reads
    return ReadBatch.of(reads, () if reference is None
                        else reference.contig_names)
