"""Nucleotide sequence primitives.

A genomic sequence is represented as a Python ``str`` over the alphabet
``A C G T N`` (paper Appendix glossary: four nucleotide bases plus ``N``
for an unresolvable base call). For kernel code that needs byte-level
access -- the accelerator stores one byte per base, exactly as the paper's
design does ("we chose to use 1 byte for each consensus base, each read
base, and each quality score") -- sequences convert to and from
``numpy.uint8`` arrays of ASCII codes.
"""

from __future__ import annotations

import numpy as np

#: The nucleotide alphabet. ``N`` denotes a base the sequencer could not call.
BASES = "ACGTN"

#: The four unambiguous bases, used for random generation and mutation.
CALLED_BASES = "ACGT"

_BASE_SET = frozenset(BASES)

#: What ``bytes.translate`` deletes from an ASCII sequence: what
#: survives is exactly its invalid characters.
_BASE_BYTES = BASES.encode("ascii")

#: ASCII codes for the alphabet, for validating uint8 arrays.
BASE_CODES = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)


class SequenceError(ValueError):
    """Raised when a string is not a valid nucleotide sequence."""


def validate_bases(seq: str) -> str:
    """Return ``seq`` unchanged if every character is a valid base.

    Raises :class:`SequenceError` otherwise. Lower-case input is *not*
    accepted: the pipeline normalises case at ingest (see
    :mod:`repro.genomics.fasta`), and silently accepting mixed case here
    would mask ingest bugs.

    Validity is decided by one C-level pass; the per-character walk
    runs only to locate the offender for the error message.
    """
    if not seq.isascii() or seq.encode("ascii").translate(None, _BASE_BYTES):
        for index, base in enumerate(seq):
            if base not in _BASE_SET:
                raise SequenceError(
                    f"invalid base {base!r} at position {index} "
                    f"(expected one of {BASES})"
                )
    return seq


def seq_to_array(seq: str) -> np.ndarray:
    """Encode a sequence string as a ``numpy.uint8`` array of ASCII codes."""
    return np.frombuffer(seq.encode("ascii"), dtype=np.uint8).copy()


def random_bases(length: int, rng: np.random.Generator) -> str:
    """Generate ``length`` random unambiguous bases using ``rng``."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    codes = rng.integers(0, len(CALLED_BASES), size=length)
    return "".join(CALLED_BASES[code] for code in codes)
