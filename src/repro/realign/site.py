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
from typing import Sequence, Tuple

import numpy as np

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
    """

    chrom: str
    start: int
    consensuses: Tuple[str, ...]
    reads: Tuple[str, ...]
    quals: Tuple[np.ndarray, ...]
    limits: SiteLimits = field(default=PAPER_LIMITS)

    def __post_init__(self) -> None:
        if len(self.consensuses) < 1:
            raise SiteError("a site needs at least the reference consensus")
        if len(self.consensuses) > self.limits.max_consensuses:
            raise SiteError(
                f"{len(self.consensuses)} consensuses exceed the "
                f"limit of {self.limits.max_consensuses}"
            )
        if not self.reads:
            raise SiteError("a site needs at least one read")
        if len(self.reads) > self.limits.max_reads:
            raise SiteError(
                f"{len(self.reads)} reads exceed the limit of {self.limits.max_reads}"
            )
        if len(self.reads) != len(self.quals):
            raise SiteError("reads and quals must be parallel sequences")
        quals = tuple(np.asarray(q, dtype=np.uint8) for q in self.quals)
        object.__setattr__(self, "quals", quals)
        max_read_len = 0
        for read, qual in zip(self.reads, quals):
            validate_bases(read)
            if not read:
                raise SiteError("empty read in site")
            if len(read) > self.limits.max_read_length:
                raise SiteError(
                    f"read length {len(read)} exceeds limit "
                    f"{self.limits.max_read_length}"
                )
            if qual.size != len(read):
                raise SiteError("read and quality lengths differ")
            max_read_len = max(max_read_len, len(read))
        for cons in self.consensuses:
            validate_bases(cons)
            if len(cons) > self.limits.max_consensus_length:
                raise SiteError(
                    f"consensus length {len(cons)} exceeds limit "
                    f"{self.limits.max_consensus_length}"
                )
            if len(cons) < max_read_len:
                raise SiteError(
                    f"consensus of length {len(cons)} shorter than the longest "
                    f"read ({max_read_len}); pad the target window"
                )

    @property
    def num_consensuses(self) -> int:
        return len(self.consensuses)

    @property
    def num_reads(self) -> int:
        return len(self.reads)

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
        n = len(self.reads[read_index])
        return m - n + 1

    def unpruned_comparisons(self) -> int:
        """Total base comparisons Algorithm 1 performs without pruning.

        This is the paper's ``O(CR * (m - n + 1) * n)`` work term and the
        unit of the software baseline's cost model.
        """
        total = 0
        for cons in self.consensuses:
            m = len(cons)
            for read in self.reads:
                n = len(read)
                total += (m - n + 1) * n
        return total

    def input_bytes(self) -> int:
        """Bytes DMA'd to the FPGA for this site (1 B per base/score)."""
        cons_bytes = sum(len(c) for c in self.consensuses)
        read_bytes = sum(len(r) for r in self.reads)
        return cons_bytes + 2 * read_bytes  # bases + quality scores

    def output_bytes(self) -> int:
        """Bytes read back: 1 B realign flag + 4 B new position per read."""
        return 5 * self.num_reads
