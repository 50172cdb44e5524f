"""SAM-lite: SAM bytes in, read columns out, and the input patched back.

The reader keeps what realignment uses of a SAM line: name, flags 0x4
(unmapped), 0x10 (reverse) and 0x400 (duplicate), RNAME, POS, MAPQ,
CIGAR, bases and qualities. The CLI and the server read SAM bytes
through the compiled tokenizer first (:func:`repro.engine.native
.sam_ingester`); :func:`ingest` is its Python twin, the reading of what
it declines and of everything without it. Both take the same bytes --
a file's, or a served job's body -- and fill the same
:class:`~repro.genomics.read.ReadBatch`: ``int64`` columns whose spans
address the buffer, from which a read is decoded only when one is
asked for. :func:`ingest` checks bases, qualities and placements once
per field of :data:`CHUNK_LINES` lines, not once per read, and builds
no read; :func:`read_sam` and :func:`parse_read` are its reads, for the
callers that want them. Realigned output is the input's own bytes with
POS and CIGAR of the moved reads patched (:func:`patch_line`,
:func:`write_patched`), so the header, every other column and every
tag come through verbatim. :func:`format_read` / :func:`write_sam` are
the simulator's writer, which renders only those columns.
"""

from __future__ import annotations

import io
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, List, Optional, TextIO, Union

import numpy as np

from repro.genomics.cigar import Cigar, CigarError
from repro.genomics.quality import QualityError, phred_from_ascii, phred_to_ascii
from repro.genomics.read import (
    COLUMNS,
    FLAG_DUPLICATE,
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    LINE_AT,
    LINE_END,
    Read,
    ReadBatch,
    cigar_codes,
)
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sequence import SequenceError, validate_bases

PathOrFile = Union[str, Path, TextIO]

#: Lines :func:`ingest` checks at a time. A chunk's split fields and
#: row tuples live until its columns are packed into ``int64`` arrays:
#: at 960 kb, 4 096 lines a chunk hold 11 MB more than 256 and take 25 %
#: longer (docs/PERFORMANCE.md, "One Python twin").
CHUNK_LINES = 256


class SamError(ValueError):
    """Raised for malformed SAM-lite input."""


def _as_text_handle(source: PathOrFile, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    return source, False


def _header_lines(reference: Optional[ReferenceGenome]) -> List[str]:
    lines = ["@HD\tVN:1.6\tSO:unsorted"]
    if reference is not None:
        for contig in reference:
            lines.append(f"@SQ\tSN:{contig.name}\tLN:{len(contig)}")
    lines.append("@PG\tID:repro\tPN:repro-indel-realigner")
    return lines


def format_read(read: Read) -> str:
    """Render one read as a SAM-lite line (1-based POS, per SAM)."""
    flag = 0
    if not read.is_mapped:
        flag |= FLAG_UNMAPPED
    if read.is_reverse:
        flag |= FLAG_REVERSE
    if read.is_duplicate:
        flag |= FLAG_DUPLICATE
    chrom = read.chrom if read.is_mapped else "*"
    pos = read.pos + 1 if read.is_mapped else 0
    cigar = str(read.cigar) if read.cigar is not None else "*"
    quals = phred_to_ascii(read.quals)
    return "\t".join(
        [
            read.name,
            str(flag),
            chrom,
            str(pos),
            str(read.mapq),
            cigar,
            "*",  # RNEXT
            "0",  # PNEXT
            "0",  # TLEN
            read.seq,
            quals,
        ]
    )


def ingest(buffer: bytes, reference: Optional[ReferenceGenome] = None,
           file: bool = False,
           locate: Optional[Callable[[int], str]] = None) -> ReadBatch:
    """The :class:`~repro.genomics.read.ReadBatch` of SAM bytes, read in
    Python: the twin of :func:`repro.engine.native.sam_ingester`'s
    ``ingest(buffer, file)``, with its columns for what it accepts, and
    the reading of what it declines.

    ``buffer`` is a served job's body -- its lines joined by ``"\\n"``,
    so a trailing newline is an empty last line -- or, with ``file``,
    a file's bytes, read as a text-mode read of the file reads them:
    ``\\r\\n`` and ``\\r`` as ``\\n`` (the batch's ``buffer`` is then
    the bytes so rewritten), blank and ``@`` header lines skipped. Every
    line, header lines too, is UTF-8. With ``reference``, a mapped read
    must lie on one of its contigs, inside it, and the ``CONTIG``
    indices follow its order; without, their order of appearance.

    A bad buffer raises what its first bad line alone raises, for the
    first failure in that line in this order: UTF-8, field count,
    numeric field, quality characters, CIGAR syntax, bases, quality
    count, CIGAR length, POS, MAPQ, RNAME, alignment end. It is always a
    :class:`SamError`: the ``UnicodeDecodeError``, a field decoder's
    error or a ``Read`` invariant's ``ValueError`` keeps its message
    and is the ``__cause__``. With ``locate``, the message is prefixed
    ``locate(k): ``, ``k`` the line's 0-based index among all the
    buffer's lines.
    """
    if file and b"\r" in buffer:
        # No byte of a multi-byte UTF-8 character is a \r or a \n.
        buffer = buffer.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if reference is None:
        contigs, sizes = {}, None
    else:
        contigs = {name: k for k, name in enumerate(reference.contig_names)}
        sizes = [len(contig) for contig in reference]
    lines = iter(io.BytesIO(buffer))
    if not file and buffer.endswith(b"\n"):
        lines = chain(lines, [b""])
    blocks, codes, lengths, op_at = [], [], [], [0]
    k = at = 0  # the next line's index and byte offset
    while chunk := list(islice(lines, CHUNK_LINES)):
        # each alignment line's fields, and its index, span and whether
        # it is ASCII
        rows, where, undecodable = [], [], None
        for line in chunk:
            try:
                text = line.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError as error:
                undecodable = error  # line k; the lines before it go first
                break
            if not (file and (not text or text.isspace()
                              or text.startswith("@"))):
                rows.append(text.split("\t"))
                where.append((k, at, at + len(line) - line.endswith(b"\n"),
                              line.isascii()))
            k += 1
            at += len(line)
        placed, bad, error = _check(rows, contigs, sizes)
        if error is not None:
            if locate is not None:
                raise SamError(f"{locate(where[bad][0])}: {error}") from None
            if isinstance(error, SamError):
                raise error
            raise SamError(str(error)) from error
        if undecodable is not None:
            message = f"line is not UTF-8: {undecodable}"
            if locate is not None:
                message = f"{locate(k)}: {message}"
            raise SamError(message) from undecodable
        block = []
        for fields, (_k, line_at, line_end, ascii), (flag, pos, mapq, contig,
                                                      end, cigar) in zip(
                rows, where, placed):
            size = len if ascii else _utf8_size
            seq_at = line_at + sum(map(size, fields[:9])) + 9
            block.append((line_at, line_end, line_at + size(fields[0]),
                          seq_at, seq_at + len(fields[9]) + 1, len(fields[9]),
                          flag, pos, mapq, contig, end))
            if cigar is not None:
                kinds, runs = cigar_codes(cigar)
                codes.extend(kinds)
                lengths.extend(runs)
            op_at.append(len(codes))
        if block:
            blocks.append(np.array(block, dtype=np.int64).T)
    return ReadBatch(
        contigs, buffer=buffer,
        columns=(np.concatenate(blocks, axis=1) if blocks
                 else np.zeros((COLUMNS, 0), dtype=np.int64)),
        op_at=np.array(op_at, dtype=np.int64),
        ops=np.array([codes, lengths], dtype=np.int64).reshape(2, -1))


def _utf8_size(field: str) -> int:
    return len(field.encode("utf-8"))


def _check(rows: List[List[str]], contigs: dict, sizes: Optional[list]):
    """Check split alignment lines once per field of the batch, not once
    per line: ``(placed, bad, error)``. ``placed`` holds ``(flag, pos,
    mapq, contig, end, cigar)`` -- the batch's ``FLAG``, ``POS``,
    ``MAPQ``, ``CONTIG`` and ``END`` columns, and the CIGAR, None for an
    unmapped read -- of every line when ``error`` is None; else ``bad``
    is the first bad line's index and ``error`` what it raises first.
    With ``sizes`` (the reference's contig lengths by index), a mapped
    read must lie inside a contig of ``contigs``; without, ``contigs``
    takes new names in order."""
    # Each check runs on rows[:limit], the rows that passed every
    # earlier check, and a failure at row i sets limit = i: the error
    # left at the end is the first bad row's first failure.
    limit, error = len(rows), None
    if rows and min(map(len, rows)) < 11:
        limit = next(i for i, fields in enumerate(rows) if len(fields) < 11)
        error = SamError(f"SAM line has {len(rows[limit])} fields, "
                         "expected >= 11")
    texts = [fields[10] for fields in rows[:limit]]
    bad_quals = limit
    try:
        phred_from_ascii("".join(texts))
    except QualityError:
        for bad_quals, text in enumerate(texts):
            try:
                phred_from_ascii(text)
            except QualityError as exc:
                quals_error = exc
                break
    placed = []
    for index in range(limit):
        fields = rows[index]
        try:
            flag, pos, mapq = int(fields[1]), int(fields[3]), int(fields[4])
        except ValueError as exc:
            limit, error = index, SamError(
                f"bad numeric field in SAM line: {exc}")
            break
        if index == bad_quals:
            limit, error = index, quals_error
            break
        kept = flag & (FLAG_REVERSE | FLAG_DUPLICATE)
        chrom, cigar = fields[2], fields[5]
        if flag & FLAG_UNMAPPED or chrom == "*" or cigar == "*":
            placed.append((kept | FLAG_UNMAPPED, 0, mapq, -1, 0, None))
            continue
        try:
            cigar = Cigar.parse(cigar)
        except CigarError as exc:
            limit, error = index, exc
            break
        contig = (contigs.setdefault(chrom, len(contigs)) if sizes is None
                  else contigs.get(chrom))
        end = pos - 1 + cigar.reference_length
        placed.append((kept, pos - 1, mapq, contig, end, cigar))
        # A misplaced read stays placed: its Read invariants are checked
        # first.
        if contig is None:
            limit, error = index, SamError(
                f"RNAME {chrom!r} is not a contig of the reference")
            break
        if sizes is not None and end > sizes[contig]:
            limit, error = index, SamError(
                f"alignment {chrom}:{pos}-{end} runs past the contig end "
                f"({sizes[contig]})")
            break
    rows = rows[:len(placed)]
    seqs = [fields[9] for fields in rows]
    if not _valid_batch(seqs, texts[:len(placed)], placed):
        # The first row that is not a valid read, with the message that
        # row alone raises.
        for index, (fields, (flag, pos, mapq, _contig, _end, cigar)) in \
                enumerate(zip(rows, placed)):
            try:
                Read(fields[0], None if cigar is None else fields[2], pos,
                     fields[9], phred_from_ascii(fields[10]), cigar, mapq,
                     bool(flag & FLAG_REVERSE), bool(flag & FLAG_DUPLICATE))
            except ValueError as exc:
                limit, error = index, exc
                break
    return placed, limit, error


def _valid_batch(seqs, quals, placed) -> bool:
    """True if no row of a checked batch can fail ``Read.__post_init__``:
    its invariants checked once per field over the whole batch."""
    try:
        validate_bases("".join(seqs))
    except SequenceError:
        return False
    lengths = list(map(len, seqs))
    return (
        lengths == list(map(len, quals))
        and all(cigar is None or cigar.read_length == length
                for (*_, cigar), length in zip(placed, lengths))
        and all(pos >= 0 and 0 <= mapq <= 254
                for _flag, pos, mapq, *_ in placed)
    )


def parse_read(line: str) -> Read:
    """Parse one SAM-lite alignment line (trailing newline optional):
    the read of :func:`ingest` on its bytes."""
    # An empty line is a body of one empty line, not an empty body.
    return ingest(line.rstrip("\n").encode("utf-8") or b"\n").reads()[0]


def read_sam(
    source: PathOrFile, reference: Optional[ReferenceGenome] = None
) -> List[Read]:
    """The reads of a SAM-lite file (a path, or a text handle), header
    and blank lines skipped: :func:`ingest`'s, errors located
    ``path:line`` (``<stream>:line`` for a handle)."""
    if isinstance(source, (str, Path)):
        buffer, where = Path(source).read_bytes(), source
    else:
        buffer, where = source.read().encode("utf-8"), "<stream>"
    return ingest(buffer, reference, file=True,
                  locate=lambda k: f"{where}:{k + 1}").reads()


def write_sam(
    reads: Iterable[Read],
    sink: PathOrFile,
    reference: Optional[ReferenceGenome] = None,
) -> None:
    """Write reads (with a header) as SAM-lite."""
    handle, owned = _as_text_handle(sink, "w")
    try:
        for line in _header_lines(reference):
            handle.write(line)
            handle.write("\n")
        for read in reads:
            handle.write(format_read(read))
            handle.write("\n")
    finally:
        if owned:
            handle.close()


def patch_line(line: str, pos: int, cigar: str) -> str:
    """``line`` with POS (column 4) and CIGAR (column 6) replaced."""
    fields = line.split("\t", 6)
    if len(fields) < 7:
        raise SamError("no POS and CIGAR to patch")
    fields[3], fields[5] = str(pos), cigar
    return "\t".join(fields)


def write_patched(batch: ReadBatch, moved, sink) -> None:
    """Write ``batch``'s buffer, a SAM file's bytes, to the binary
    ``sink`` with POS and CIGAR of alignment line ``index`` patched for
    each ``[index, pos, cigar]`` of ``moved`` (ascending ``index``):
    everything else is copied as byte spans of the buffer, which the
    batch's line spans address."""
    view, at = memoryview(batch.buffer), 0
    starts, stops = batch.columns[LINE_AT], batch.columns[LINE_END]
    for index, pos, cigar in moved:
        start, stop = int(starts[index]), int(stops[index])
        sink.write(view[at:start])
        sink.write(patch_line(str(view[start:stop], "utf-8"), pos,
                              cigar).encode("utf-8"))
        at = stop
    sink.write(view[at:])
