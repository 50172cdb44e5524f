"""Minimal FASTQ reader/writer for unaligned reads.

The simulator emits FASTQ; the primary aligner consumes it. Quality
strings use the Sanger Phred+33 convention (see
:mod:`repro.genomics.quality`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

import numpy as np

from repro.genomics.quality import MAX_PHRED, phred_from_ascii, phred_to_ascii
from repro.genomics.sequence import validate_bases

PathOrFile = Union[str, Path, TextIO]


class FastqError(ValueError):
    """Raised for malformed FASTQ input."""


@dataclass(frozen=True)
class FastqRecord:
    """One unaligned read: name, bases, and raw Phred scores."""

    name: str
    seq: str
    quals: np.ndarray

    def __post_init__(self) -> None:
        validate_bases(self.seq)
        quals = np.asarray(self.quals)
        if quals.size != len(self.seq):
            raise FastqError(
                f"record {self.name!r}: {quals.size} quality scores "
                f"for {len(self.seq)} bases"
            )
        # Range-check at the input's own width: narrowing first would
        # wrap 300 to a legal-looking 44.
        if quals.size and not (0 <= quals.min() and quals.max() <= MAX_PHRED):
            raise FastqError(
                f"record {self.name!r}: Phred score outside [0, {MAX_PHRED}]"
            )
        object.__setattr__(self, "quals", quals.astype(np.uint8, copy=False))


def _as_text_handle(source: PathOrFile, mode: str):
    if isinstance(source, (str, Path)):
        return open(source, mode), True
    return source, False


def parse_fastq(source: PathOrFile) -> Iterator[FastqRecord]:
    """Yield :class:`FastqRecord` items from 4-line FASTQ blocks."""
    handle, owned = _as_text_handle(source, "r")
    try:
        while True:
            header = handle.readline()
            if not header:
                return
            header = header.strip()
            if not header:
                continue
            if not header.startswith("@"):
                raise FastqError(f"expected '@' header, got {header!r}")
            seq = handle.readline().strip().upper()
            plus = handle.readline().strip()
            quals = handle.readline().strip()
            if not plus.startswith("+"):
                raise FastqError(f"expected '+' separator, got {plus!r}")
            if len(seq) != len(quals):
                raise FastqError(
                    f"record {header!r}: sequence and quality lengths differ"
                )
            name = header[1:].split()[0]
            yield FastqRecord(name, seq, phred_from_ascii(quals))
    finally:
        if owned:
            handle.close()


def write_fastq(records: Iterable[FastqRecord], sink: PathOrFile) -> None:
    """Write records as 4-line FASTQ blocks."""
    handle, owned = _as_text_handle(sink, "w")
    try:
        for record in records:
            handle.write(f"@{record.name}\n{record.seq}\n+\n")
            handle.write(phred_to_ascii(record.quals))
            handle.write("\n")
    finally:
        if owned:
            handle.close()
