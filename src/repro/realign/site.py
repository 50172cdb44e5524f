"""The :class:`RealignmentSite` container: one IR target's kernel inputs.

Paper Appendix: *"A target is a position interval slice in relation to the
reference ... All reads that overlap this region ... are considered reads
for this site"*, and a consensus *"presents another way to assemble the
reads"*. The kernel sees a site as:

- ``consensuses`` -- consensus 0 is the reference window itself (the
  paper's ``REF``; "including the reference (i=0)"), the rest are
  alternate haplotypes;
- ``reads`` / ``quals`` -- base strings and Phred scores of the anchored
  reads.

The paper's hardware limits (Appendix + Section III-A) are enforced here
so software and accelerator agree on what a legal site is:
``C <= 32`` consensuses of length ``m <= 2048``, ``R <= 256`` reads of
length ``n <= 256``, and every consensus at least as long as every read
(so each pair has ``m - n + 1 >= 1`` sliding offsets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.genomics.quality import PHRED_OFFSET
from repro.genomics.sequence import seq_to_array, validate_bases


@dataclass(frozen=True)
class SiteLimits:
    """Structural limits of one IR target (paper values by default)."""

    max_consensuses: int = 32
    max_consensus_length: int = 2048
    max_reads: int = 256
    max_read_length: int = 256

    def __post_init__(self) -> None:
        if min(self.max_consensuses, self.max_consensus_length,
               self.max_reads, self.max_read_length) <= 0:
            raise ValueError("all site limits must be positive")


PAPER_LIMITS = SiteLimits()


class SiteError(ValueError):
    """Raised when a site violates the structural limits."""


@dataclass(frozen=True)
class RealignmentSite:
    """One IR target, ready for the WHD kernel.

    ``start`` is the reference coordinate of the first base of
    ``consensuses[0]``; realigned read positions are computed as
    ``min_whd_idx + start`` (Algorithm 2 line 25).

    A site's reads live in one byte buffer (:meth:`spans`), which the
    compiled kernel reads in place. Built from strings, the site checks
    every read's bases and qualities and joins them into a buffer of
    its own; :meth:`from_buffer` addresses the bytes a SAM reader
    checked already. Either way ``reads`` and ``quals`` are decoded from
    the buffer on first use and kept, and ``lengths`` holds the read
    lengths.
    """

    chrom: str
    start: int
    consensuses: Tuple[str, ...]
    reads: Tuple[str, ...]
    quals: Tuple[np.ndarray, ...]
    limits: SiteLimits = field(default=PAPER_LIMITS)

    def __post_init__(self) -> None:
        if len(self.reads) != len(self.quals):
            raise SiteError("reads and quals must be parallel sequences")
        quals = [np.asarray(q, dtype=np.uint8) for q in self.quals]
        for read, qual in zip(self.reads, quals):
            validate_bases(read)
            if qual.size != len(read):
                raise SiteError("read and quality lengths differ")
        lengths = np.fromiter(map(len, self.reads), dtype=np.int64,
                              count=len(self.reads))
        bases = "".join(self.reads).encode("ascii")
        seq_at = np.cumsum(lengths) - lengths
        # decoded again from the buffer on first use
        object.__delattr__(self, "reads")
        object.__delattr__(self, "quals")
        self._address(bases + b"".join(q.tobytes() for q in quals), seq_at,
                      seq_at + len(bases), lengths, 0)

    @classmethod
    def from_buffer(cls, chrom: str, start: int, consensuses: Tuple[str, ...],
                    buffer: bytes, seq_at: np.ndarray, qual_at: np.ndarray,
                    lengths: np.ndarray,
                    limits: SiteLimits = PAPER_LIMITS) -> "RealignmentSite":
        """The site whose read ``j`` is the ``lengths[j]`` bases at
        ``buffer[seq_at[j]:]`` with the Sanger (Phred+33) characters at
        ``buffer[qual_at[j]:]``, which the caller has checked."""
        site = object.__new__(cls)
        for name, value in (("chrom", chrom), ("start", start),
                            ("consensuses", consensuses), ("limits", limits)):
            object.__setattr__(site, name, value)
        site._address(buffer, seq_at, qual_at, lengths, PHRED_OFFSET)
        return site

    def _address(self, buffer: bytes, seq_at, qual_at, lengths,
                 phred: int) -> None:
        """Hold the reads' spans of ``buffer``, their scores plus
        ``phred``, after checking that every span lies in it and the
        paper's structural limits."""
        seq_at, qual_at, lengths = (np.ascontiguousarray(a, dtype=np.int64)
                                    for a in (seq_at, qual_at, lengths))
        if not seq_at.shape == qual_at.shape == lengths.shape:
            raise SiteError("seq_at, qual_at and lengths must be parallel")
        if lengths.size and (min(seq_at.min(), qual_at.min()) < 0 or max(
                (seq_at + lengths).max(), (qual_at + lengths).max())
                > len(buffer)):
            raise SiteError("a read's span lies outside the buffer")
        limits = self.limits
        if len(self.consensuses) < 1:
            raise SiteError("a site needs at least the reference consensus")
        if len(self.consensuses) > limits.max_consensuses:
            raise SiteError(
                f"{len(self.consensuses)} consensuses exceed the "
                f"limit of {limits.max_consensuses}"
            )
        if not lengths.size:
            raise SiteError("a site needs at least one read")
        if lengths.size > limits.max_reads:
            raise SiteError(
                f"{lengths.size} reads exceed the limit of {limits.max_reads}"
            )
        if lengths.min() < 1:
            raise SiteError("empty read in site")
        max_read_len = int(lengths.max())
        if max_read_len > limits.max_read_length:
            raise SiteError(
                f"read length {max_read_len} exceeds limit "
                f"{limits.max_read_length}"
            )
        for cons in self.consensuses:
            validate_bases(cons)
            if len(cons) > limits.max_consensus_length:
                raise SiteError(
                    f"consensus length {len(cons)} exceeds limit "
                    f"{limits.max_consensus_length}"
                )
            if len(cons) < max_read_len:
                raise SiteError(
                    f"consensus of length {len(cons)} shorter than the longest "
                    f"read ({max_read_len}); pad the target window"
                )
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "_spans", (buffer, seq_at, qual_at, phred))

    def __getattr__(self, name: str):
        """``reads`` and ``quals``, decoded from the buffer on first use
        and kept."""
        if name not in ("reads", "quals") or "_spans" not in self.__dict__:
            raise AttributeError(name)
        buffer, seq_at, qual_at, phred = self._spans
        lengths = self.lengths.tolist()
        object.__setattr__(self, "reads", tuple(
            buffer[at:at + n].decode("ascii")
            for at, n in zip(seq_at.tolist(), lengths)))
        scores = np.frombuffer(b"".join([buffer[at:at + n] for at, n in zip(
            qual_at.tolist(), lengths)]), np.uint8) - np.uint8(phred)
        scores.flags.writeable = False
        object.__setattr__(self, "quals", tuple(
            np.split(scores, np.cumsum(lengths)[:-1])))
        return getattr(self, name)

    def spans(self) -> Tuple[bytes, np.ndarray, np.ndarray, int]:
        """``(buffer, seq_at, qual_at, phred)``: read ``j``'s
        ``lengths[j]`` bases at ``buffer[seq_at[j]:]`` and its scores
        plus ``phred`` at ``buffer[qual_at[j]:]`` -- Sanger characters
        (``phred`` 33) for a :meth:`from_buffer` site, raw scores (0)
        for a site built from strings."""
        return self._spans

    @property
    def num_consensuses(self) -> int:
        return len(self.consensuses)

    @property
    def num_reads(self) -> int:
        return len(self.lengths)

    @property
    def reference(self) -> str:
        """Consensus 0 -- the reference window."""
        return self.consensuses[0]

    def consensus_arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(seq_to_array(c) for c in self.consensuses)

    def read_arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(seq_to_array(r) for r in self.reads)

    def offsets(self, cons_index: int, read_index: int) -> int:
        """Number of sliding offsets for one pair: ``m - n + 1``.

        Note the paper's Algorithm 1 pseudo-code writes the loop bound as
        ``m - n - 1`` but its text and Figure 4 example both use
        ``m - n + 1`` alignments; we follow the text (see DESIGN.md).
        """
        m = len(self.consensuses[cons_index])
        n = int(self.lengths[read_index])
        return m - n + 1

    def total_offsets(self) -> int:
        """:meth:`offsets` summed over every pair, in closed form:
        ``R * sum_i m_i - C * sum_j n_j + C * R``."""
        C, R = len(self.consensuses), len(self.lengths)
        return (R * sum(map(len, self.consensuses))
                - C * int(self.lengths.sum()) + C * R)

    def unpruned_comparisons(self) -> int:
        """Total base comparisons Algorithm 1 performs without pruning.

        This is the paper's ``O(CR * (m - n + 1) * n)`` work term and the
        unit of the software baseline's cost model. Summed over every
        pair, ``(m_i - n_j + 1) * n_j`` is
        ``(sum_i (m_i + 1)) * sum_j n_j - C * sum_j n_j**2``.
        """
        n = self.lengths
        return (sum(len(c) + 1 for c in self.consensuses) * int(n.sum())
                - len(self.consensuses) * int(np.dot(n, n)))

    def input_bytes(self) -> int:
        """Bytes DMA'd to the FPGA for this site (1 B per base/score)."""
        cons_bytes = sum(len(c) for c in self.consensuses)
        return cons_bytes + 2 * int(self.lengths.sum())  # bases + scores

    def output_bytes(self) -> int:
        """Bytes read back: 1 B realign flag + 4 B new position per read."""
        return 5 * self.num_reads
