"""Minimal FASTA reader/writer for reference genomes.

Only the features the pipeline needs: multi-contig files, free line
wrapping, case normalisation, and comment-free headers (text after the
first whitespace in a ``>`` line is ignored, as samtools does).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, TextIO, Tuple, Union

from repro.genomics.reference import Contig, ReferenceGenome
from repro.genomics.sequence import SequenceError, validate_bases

PathOrFile = Union[str, Path, TextIO]


class FastaError(ValueError):
    """Raised for malformed FASTA input."""


def _as_text_handle(source: PathOrFile, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    return source, False


def parse_fasta(source: PathOrFile) -> List[Tuple[str, str]]:
    """Parse FASTA into ``(name, sequence)`` pairs, upper-casing bases.

    A malformed record -- a bad base, a repeated or empty name, data
    before the first header -- is a :class:`FastaError` located
    ``path:line`` (``<stream>`` for a handle).
    """
    handle, owned = _as_text_handle(source, "r")
    path = source if owned else "<stream>"
    try:
        records: List[Tuple[str, str]] = []
        names = set()
        name = None
        chunks: List[str] = []
        for lineno, raw_line in enumerate(handle, 1):
            line = raw_line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    records.append((name, "".join(chunks)))
                name = line[1:].split()[0] if len(line) > 1 else ""
                if not name:
                    raise FastaError(f"{path}:{lineno}: FASTA record with "
                                     "empty name")
                if name in names:
                    raise FastaError(f"{path}:{lineno}: duplicate contig "
                                     f"name {name!r}")
                names.add(name)
                chunks = []
            else:
                if name is None:
                    raise FastaError(f"{path}:{lineno}: sequence data before "
                                     "any FASTA header")
                try:
                    chunks.append(validate_bases(line.upper()))
                except SequenceError as error:
                    raise FastaError(f"{path}:{lineno}: {error}") from None
        if name is not None:
            records.append((name, "".join(chunks)))
        if not records:
            raise FastaError(f"{path}: no FASTA records found")
        return records
    finally:
        if owned:
            handle.close()


def read_reference(source: PathOrFile) -> ReferenceGenome:
    """Load a FASTA file as a :class:`ReferenceGenome`."""
    return ReferenceGenome([Contig(name, seq) for name, seq in parse_fasta(source)])


def write_fasta(
    records: Iterable[Tuple[str, str]],
    sink: PathOrFile,
    line_width: int = 70,
) -> None:
    """Write ``(name, sequence)`` records as wrapped FASTA."""
    if line_width <= 0:
        raise ValueError(f"line_width must be positive, got {line_width}")
    handle, owned = _as_text_handle(sink, "w")
    try:
        for name, seq in records:
            handle.write(f">{name}\n")
            for start in range(0, len(seq), line_width):
                handle.write(seq[start : start + line_width])
                handle.write("\n")
    finally:
        if owned:
            handle.close()


def write_reference(reference: ReferenceGenome, sink: PathOrFile) -> None:
    """Write a :class:`ReferenceGenome` as FASTA."""
    write_fasta(((c.name, c.sequence) for c in reference), sink)
