"""SAM-lite: SAM text in, reads out, and the input patched back.

The reader keeps what realignment uses of a SAM line: name, flags 0x4
(unmapped), 0x10 (reverse) and 0x400 (duplicate), RNAME, POS, MAPQ,
CIGAR, bases and qualities. The CLI and the server read SAM bytes
through the compiled tokenizer first (:func:`repro.engine.native
.sam_ingester`), which fills a :class:`~repro.genomics.read.ReadBatch`'s
columns in one pass; this module is the Python reading of what it
declines, and of every text boundary without it. There, a file (in
chunks of :data:`CHUNK_LINES` lines), a served job's lines and
:func:`parse_read` go through one batch parser in two halves:
:func:`scan_lines` checks bases, qualities and placements once per
field of a batch, not once per read, and returns the checked rows as a
batch; its :meth:`~repro.genomics.read.ReadBatch.reads` builds the
reads. :func:`parse_lines` is the two in a row. Realigned output is
the input's own bytes with POS and CIGAR of the moved reads patched
(:func:`patch_line`, :func:`write_patched`), so the header, every other
column and every tag come through verbatim.
:func:`format_read` / :func:`write_sam` are the simulator's writer,
which renders only those columns.
"""

from __future__ import annotations

import io
from itertools import islice
from pathlib import Path
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    TextIO, Tuple, Union)

from repro.genomics.cigar import Cigar, CigarError
from repro.genomics.quality import QualityError, phred_from_ascii, phred_to_ascii
from repro.genomics.read import (
    FLAG_DUPLICATE,
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    LINE_AT,
    LINE_END,
    Read,
    ReadBatch,
    RowError,
)
from repro.genomics.reference import ReferenceGenome

PathOrFile = Union[str, Path, TextIO]

#: File lines the readers hand :func:`parse_lines` at a time. A chunk's
#: split rows live until it is parsed, and the reads kept from it pin
#: the arenas they were allocated in, so a larger chunk raises the
#: CLI's peak RSS while saving little time (docs/PERFORMANCE.md).
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


def scan_lines(lines: Sequence[str],
               reference: Optional[ReferenceGenome] = None,
               locate: Optional[Callable[[int], str]] = None) -> ReadBatch:
    """Check SAM-lite alignment lines (trailing newline optional) once
    per field of the batch, not once per read, without building a read.

    Each line is split once. The qualities of all lines are decoded in
    one pass into one read-only buffer, which each read's ``quals``
    will be a view of; :meth:`Read.batch` checks the bases and the
    other read invariants over the batch. With ``reference``, a mapped
    read must lie on one of its contigs, inside it. The returned
    :class:`~repro.genomics.read.ReadBatch` builds the reads on
    :meth:`~repro.genomics.read.ReadBatch.reads` and cannot fail then.

    A bad batch raises what its first bad line alone raises, for the
    first failure in that line in this order: field count, numeric
    field, quality characters, CIGAR syntax, bases, quality count, CIGAR
    length, POS, MAPQ, RNAME, alignment end. It is always a
    :class:`SamError`: a field decoder's error or a ``Read`` invariant's
    ``ValueError`` keeps its message and is the ``__cause__``. With
    ``locate``, the message is prefixed ``locate(index): ``.
    """
    rows = [line.rstrip("\n").split("\t") for line in lines]
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
        scores = phred_from_ascii("".join(texts))
    except QualityError:
        for bad_quals, text in enumerate(texts):
            try:
                phred_from_ascii(text)
            except QualityError as exc:
                quals_error = exc
                break
    lengths = (None if reference is None
               else {contig.name: len(contig) for contig in reference})
    batch = []
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
        chrom, cigar = fields[2], fields[5]
        if flag & FLAG_UNMAPPED or chrom == "*" or cigar == "*":
            chrom, pos, cigar = None, 0, None
        else:
            try:
                cigar, pos = Cigar.parse(cigar), pos - 1
            except CigarError as exc:
                limit, error = index, exc
                break
        batch.append((fields[0], chrom, pos, fields[9], len(fields[10]),
                      cigar, mapq, bool(flag & FLAG_REVERSE),
                      bool(flag & FLAG_DUPLICATE)))
        # A misplaced read stays in the batch: its Read invariants are
        # checked first.
        if chrom is not None and lengths is not None:
            length = lengths.get(chrom)
            if length is None:
                limit, error = index, SamError(
                    f"RNAME {chrom!r} is not a contig of the reference")
                break
            end = pos + cigar.reference_length
            if end > length:
                limit, error = index, SamError(
                    f"alignment {chrom}:{pos + 1}-{end} runs past the "
                    f"contig end ({length})")
                break
    if len(batch) < len(texts):  # decode only the rows in the batch
        scores = phred_from_ascii("".join(texts[:len(batch)]))
    scores.flags.writeable = False  # the reads' quals are views of it
    try:
        checked = Read.batch(batch, scores, contigs=() if reference is None
                             else reference.contig_names, lines=lines)
    except RowError as bad:
        limit, error = bad.row, bad.error
    if error is None:
        return checked
    if locate is None:
        if isinstance(error, SamError):
            raise error
        raise SamError(str(error)) from error
    raise SamError(f"{locate(limit)}: {error}") from None


def parse_lines(lines: Sequence[str],
                reference: Optional[ReferenceGenome] = None,
                locate: Optional[Callable[[int], str]] = None) -> List[Read]:
    """The reads of SAM-lite alignment lines: :func:`scan_lines`, then
    :meth:`~repro.genomics.read.ReadBatch.reads`."""
    return scan_lines(lines, reference, locate).reads()


def parse_read(line: str) -> Read:
    """Parse one SAM-lite alignment line: :func:`parse_lines` of one."""
    return parse_lines([line])[0]


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


def _is_alignment(line: str) -> bool:
    """Not a blank or ``@`` header line (file lines are never empty)."""
    return not (line.isspace() or line.startswith("@"))


def _lines(
    source: PathOrFile, reference: Optional[ReferenceGenome],
    path=None,
) -> Iterator[Tuple[str, Optional[Read]]]:
    """``(line, read)`` for each line of ``source``, ``read`` None for a
    blank or header line. The alignment lines go to :func:`parse_lines`
    :data:`CHUNK_LINES` file lines at a time; errors are located
    ``path:line`` (by default the source's path, or ``<stream>``)."""
    handle, owned = _as_text_handle(source, "r")
    if path is None:
        path = source if owned else "<stream>"
    try:
        first = 1  # the chunk's first line number
        while chunk := list(islice(handle, CHUNK_LINES)):
            rows = [i for i, line in enumerate(chunk) if _is_alignment(line)]
            reads = iter(parse_lines([chunk[i] for i in rows], reference,
                                     lambda k: f"{path}:{first + rows[k]}"))
            for line in chunk:
                yield line, next(reads) if _is_alignment(line) else None
            first += len(chunk)
    finally:
        if owned:
            handle.close()


def parse_sam(
    source: PathOrFile, reference: Optional[ReferenceGenome] = None
) -> Iterator[Read]:
    """Yield reads from a SAM-lite file, skipping blank and header lines.

    Whatever a line raises (a bad field, CIGAR, quality string or
    read) comes out as a :class:`SamError` located ``path:line``
    (``<stream>`` for a handle); with ``reference``, so does a mapped
    read off it. The first bad line is reported, as
    :func:`parse_lines` orders its failures.
    """
    return (read for _line, read in _lines(source, reference)
            if read is not None)


def read_sam(
    source: PathOrFile, reference: Optional[ReferenceGenome] = None
) -> List[Read]:
    """Eagerly load a SAM-lite file."""
    return list(parse_sam(source, reference))


def read_sam_lines(source: PathOrFile,
                   reference: Optional[ReferenceGenome] = None):
    """``(header, lines, reads)``: the blank and header lines, the
    alignment lines (newlines stripped) and their reads, as
    :func:`parse_sam` reads them."""
    header, lines, reads = [], [], []
    for line, read in _lines(source, reference):
        if read is None:
            header.append(line.rstrip("\n"))
        else:
            lines.append(line.rstrip("\n"))
            reads.append(read)
    return header, lines, reads


def patch_line(line: str, pos: int, cigar: str) -> str:
    """``line`` with POS (column 4) and CIGAR (column 6) replaced."""
    fields = line.split("\t", 6)
    if len(fields) < 7:
        raise SamError("no POS and CIGAR to patch")
    fields[3], fields[5] = str(pos), cigar
    return "\t".join(fields)


def scan_sam(buffer: bytes, reference: ReferenceGenome,
             path) -> Tuple[bytes, ReadBatch]:
    """A SAM file's bytes read in Python: ``(buffer, batch)``, the
    batch's line spans addressing ``buffer``.

    This is how the CLI reads what the compiled tokenizer declines (or
    every file without the compiled tier): as a text-mode read of the
    file does -- UTF-8, ``\\r\\n`` and ``\\r`` read as ``\\n`` (then
    ``buffer`` is the text as read, re-encoded) -- and line by line as
    :func:`parse_sam` does, errors located ``path:line``.
    """
    if b"\r" in buffer:
        buffer = (buffer.decode("utf-8").replace("\r\n", "\n")
                  .replace("\r", "\n").encode("utf-8"))
    text = io.TextIOWrapper(io.BytesIO(buffer), encoding="utf-8")
    line_at, line_end, reads, at = [], [], [], 0
    for line, read in _lines(text, reference, path):
        size = len(line) if line.isascii() else len(line.encode("utf-8"))
        if read is not None:
            reads.append(read)
            line_at.append(at)
            line_end.append(at + size - line.endswith("\n"))
        at += size
    return buffer, ReadBatch.of(reads, reference.contig_names,
                                (line_at, line_end))


def write_patched(buffer: bytes, batch: ReadBatch, moved, sink) -> None:
    """Write ``buffer``, a SAM file's bytes, to the binary ``sink`` with
    POS and CIGAR of alignment line ``index`` patched for each ``[index,
    pos, cigar]`` of ``moved`` (ascending ``index``): everything else is
    copied as byte spans of ``buffer``, which ``batch``'s line spans
    address."""
    view, at = memoryview(buffer), 0
    starts, stops = batch.columns[LINE_AT], batch.columns[LINE_END]
    for index, pos, cigar in moved:
        start, stop = int(starts[index]), int(stops[index])
        sink.write(view[at:start])
        sink.write(patch_line(str(view[start:stop], "utf-8"), pos,
                              cigar).encode("utf-8"))
        at = stop
    sink.write(view[at:])
