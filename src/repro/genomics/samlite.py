"""SAM-lite: SAM text in, reads out, and the input patched back.

The reader keeps what realignment uses of a SAM line: name, flags 0x4
(unmapped), 0x10 (reverse) and 0x400 (duplicate), RNAME, POS, MAPQ,
CIGAR, bases and qualities. Realigned output is the input's own text
with POS and CIGAR of the moved reads patched (:func:`patch_line`), so
the header, every other column and every tag come through verbatim.
:func:`format_read` / :func:`write_sam` are the simulator's writer,
which renders only those columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from repro.genomics.cigar import Cigar
from repro.genomics.quality import phred_from_ascii, phred_to_ascii
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome

PathOrFile = Union[str, Path, TextIO]

FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10
FLAG_DUPLICATE = 0x400


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


def parse_read(line: str) -> Read:
    """Parse one SAM-lite alignment line back into a :class:`Read`."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 11:
        raise SamError(f"SAM line has {len(fields)} fields, expected >= 11")
    name, flag_text, chrom, pos_text, mapq_text, cigar_text = fields[:6]
    seq, quals_text = fields[9], fields[10]
    try:
        flag = int(flag_text)
        pos = int(pos_text)
        mapq = int(mapq_text)
    except ValueError as exc:
        raise SamError(f"bad numeric field in SAM line: {exc}") from None
    unmapped = bool(flag & FLAG_UNMAPPED) or chrom == "*" or cigar_text == "*"
    return Read(
        name=name,
        chrom=None if unmapped else chrom,
        pos=0 if unmapped else pos - 1,
        seq=seq,
        quals=phred_from_ascii(quals_text),
        cigar=None if unmapped else Cigar.parse(cigar_text),
        mapq=mapq,
        is_reverse=bool(flag & FLAG_REVERSE),
        is_duplicate=bool(flag & FLAG_DUPLICATE),
    )


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


def check_placement(read: Read, reference: ReferenceGenome) -> None:
    """Raise :class:`SamError` unless a mapped ``read`` lies on a contig
    of ``reference``, inside it. The text boundaries (a SAM file, a
    served job's lines) call this; in-memory reads are not checked."""
    if not read.is_mapped:
        return
    try:
        length = reference.length(read.chrom)
    except KeyError:
        raise SamError(f"RNAME {read.chrom!r} is not a contig of the "
                       "reference") from None
    end = read.pos + read.cigar.reference_length
    if end > length:
        raise SamError(f"alignment {read.chrom}:{read.pos + 1}-{end} runs "
                       f"past the contig end ({length})")


def _lines(
    source: PathOrFile, reference: Optional[ReferenceGenome]
) -> Iterator[Tuple[str, Optional[Read]]]:
    """``(line, read)`` for each line of ``source``, ``read`` None for a
    blank or header line; errors are located ``path:line``."""
    handle, owned = _as_text_handle(source, "r")
    path = source if owned else "<stream>"
    try:
        for lineno, line in enumerate(handle, 1):
            if not _is_alignment(line):
                yield line, None
                continue
            try:
                read = parse_read(line)
                if reference is not None:
                    check_placement(read, reference)
            except ValueError as error:
                raise SamError(f"{path}:{lineno}: {error}") from None
            yield line, read
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
    read off it (:func:`check_placement`).
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


def copy_patched(path, sink: TextIO, moved, count: int) -> None:
    """Copy the SAM file at ``path`` to ``sink``, patching alignment
    line ``index`` (counted as :func:`parse_sam` counts reads) for each
    ``[index, pos, cigar]`` in ``moved``. The file must still hold the
    ``count`` reads ``moved`` was computed from, else :class:`SamError`.
    """
    patches = {index: (pos, cigar) for index, pos, cigar in moved}
    index = 0
    with open(path) as handle:
        for line in handle:
            if _is_alignment(line):
                if index in patches:
                    line = patch_line(line, *patches[index])
                index += 1
            sink.write(line)
    if index != count:
        raise SamError(f"{path}: {index} reads on the second read, "
                       f"{count} on the first")
