"""SAM-lite: a text serialisation of aligned reads.

A restricted SAM dialect carrying exactly the columns the refinement
pipeline uses. It exists so pipeline stages can be checkpointed to disk
and inspected, and so the examples produce artifacts a bioinformatician
would recognise. Flags encoded: 0x10 (reverse strand), 0x400 (duplicate),
0x4 (unmapped).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, TextIO, Union

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


def parse_sam(source: PathOrFile) -> Iterator[Read]:
    """Yield reads from a SAM-lite file, skipping header lines.

    Whatever a line raises (a bad field, CIGAR, quality string or
    read) comes out as a :class:`SamError` located ``path:line``
    (``<stream>`` for a handle).
    """
    handle, owned = _as_text_handle(source, "r")
    path = source if owned else "<stream>"
    try:
        for lineno, line in enumerate(handle, 1):
            if not line.strip() or line.startswith("@"):
                continue
            try:
                read = parse_read(line)
            except ValueError as error:
                raise SamError(f"{path}:{lineno}: {error}") from None
            yield read
    finally:
        if owned:
            handle.close()


def read_sam(source: PathOrFile) -> List[Read]:
    """Eagerly load a SAM-lite file."""
    return list(parse_sam(source))
