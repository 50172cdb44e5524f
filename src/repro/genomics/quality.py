"""Phred quality-score primitives.

The paper's Appendix glossary: *"A quality score is a prediction of the
probability of an error in base calling. For a quality score of 10, the
base call accuracy is at 90%; for a quality score of 60, the base call
accuracy is at 99.9999%. An industry standard Phred Quality Score is
represented as a string of visible ASCII characters for a one-to-one
mapping against a string of corresponding read bases."*

We use the Sanger/Illumina 1.8+ convention (Phred+33). Quality scores are
stored as raw integers (``numpy.uint8``) inside the pipeline -- the
accelerator consumes one byte per score -- and only converted to ASCII at
the FASTQ boundary. That conversion is one ``bytes.translate`` per read
through a 256-entry table, never a Python step per base: the table's
delete set drops every byte outside the legal range, so a shorter result
*is* the range check.
"""

from __future__ import annotations

import numpy as np

#: ASCII offset of the Sanger Phred encoding.
PHRED_OFFSET = 33

#: Highest score representable as a visible ASCII character ('~' = 126).
MAX_PHRED = 93

#: Typical Illumina quality ceiling; the simulator caps emitted scores here.
ILLUMINA_MAX_PHRED = 41


class QualityError(ValueError):
    """Raised for malformed quality strings or out-of-range scores."""


#: score byte -> Sanger character and back; bytes outside the legal
#: range are in the delete sets, so their table entries are never read.
_ENCODE = bytes((score + PHRED_OFFSET) % 256 for score in range(256))
_DECODE = bytes((char - PHRED_OFFSET) % 256 for char in range(256))
_NOT_SCORES = bytes(range(MAX_PHRED + 1, 256))
_NOT_SANGER = bytes(
    char for char in range(256)
    if not PHRED_OFFSET <= char <= PHRED_OFFSET + MAX_PHRED
)


def _out_of_range(score: int) -> QualityError:
    return QualityError(f"Phred score {score} outside [0, {MAX_PHRED}]")


def _checked_scores(quals):
    """``int()`` of each score in turn, raising at the first illegal one."""
    for score in quals:
        score = int(score)
        if not 0 <= score <= MAX_PHRED:
            raise _out_of_range(score)
        yield score


def phred_to_ascii(quals) -> str:
    """Encode an iterable of integer Phred scores as a Sanger quality string.

    A 1-D ``uint8`` array -- what every :class:`~repro.genomics.read.Read`
    holds -- is encoded and range-checked by one table pass; any other
    iterable is first coerced score by score.
    """
    if isinstance(quals, np.ndarray) and quals.dtype == np.uint8 and quals.ndim == 1:
        raw = quals.tobytes()
    else:
        raw = bytes(_checked_scores(quals))
    encoded = raw.translate(_ENCODE, _NOT_SCORES)
    if len(encoded) != len(raw):
        raise _out_of_range(next(s for s in raw if s > MAX_PHRED))
    return encoded.decode("ascii")


def phred_from_ascii(text: str) -> np.ndarray:
    """Decode a Sanger quality string into a ``numpy.uint8`` score array."""
    # "ignore" drops what ASCII cannot hold and the table's delete set
    # drops what Phred+33 cannot, so any illegal character shortens this.
    decoded = text.encode("ascii", "ignore").translate(_DECODE, _NOT_SANGER)
    if len(decoded) != len(text):
        raise QualityError(
            f"quality string contains characters outside Phred+33 range: {text!r}"
        )
    return np.frombuffer(decoded, dtype=np.uint8).copy()


def phred_to_error_prob(score: float) -> float:
    """Return the base-calling error probability for a Phred score.

    ``Q = -10 * log10(P_error)``, so ``P_error = 10 ** (-Q / 10)``.
    """
    if score < 0:
        raise QualityError(f"Phred score must be non-negative, got {score}")
    return 10.0 ** (-score / 10.0)


def error_prob_to_phred(prob: float) -> float:
    """Return the Phred score for a base-calling error probability."""
    if not 0.0 < prob <= 1.0:
        raise QualityError(f"error probability must be in (0, 1], got {prob}")
    return -10.0 * np.log10(prob)


def clamp_phred(scores: np.ndarray, ceiling: int = ILLUMINA_MAX_PHRED) -> np.ndarray:
    """Clamp scores into ``[0, ceiling]`` and return them as ``uint8``."""
    return np.clip(np.asarray(scores), 0, ceiling).astype(np.uint8)
