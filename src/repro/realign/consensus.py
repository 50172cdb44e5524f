"""Consensus generation for one IR target.

Paper Appendix: *"Consensuses are constructed using insertions and
deletions present in the original alignment and reads spanning at this
site given a certain heuristic."* Concretely: each distinct INDEL observed
in the anchored reads' CIGARs, applied to the target's reference window,
yields one alternate haplotype; consensus 0 is the reference window
itself. The most-supported INDELs win the ``C <= 32`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.genomics.cigar import CigarOp
from repro.genomics.read import (
    DELETION,
    END,
    INSERTION,
    LENGTH,
    MATCH,
    POS,
    QUAL_AT,
    SEQ_AT,
    SOFT_CLIP,
    ReadBatch,
)
from repro.genomics.reference import ReferenceGenome
from repro.realign.site import RealignmentSite, SiteLimits, PAPER_LIMITS
from repro.realign.targets import RealignmentTarget


@dataclass(frozen=True)
class ObservedIndel:
    """One INDEL observation lifted out of a read's CIGAR.

    ``ref_pos`` is the absolute reference position of the element: for an
    insertion, the reference position *before which* the novel bases sit
    (i.e. one past the anchor base); for a deletion, the first deleted
    base.
    """

    ref_pos: int
    op: CigarOp
    length: int
    inserted: str = ""  # inserted bases (insertions only)

    def __post_init__(self) -> None:
        if self.op not in (CigarOp.INSERTION, CigarOp.DELETION):
            raise ValueError(f"not an INDEL operation: {self.op}")
        if self.length <= 0:
            raise ValueError("INDEL length must be positive")
        if self.op is CigarOp.INSERTION and len(self.inserted) != self.length:
            raise ValueError("inserted bases must match the insertion length")


def observed_indels(batch: ReadBatch,
                    members: np.ndarray) -> Dict[ObservedIndel, int]:
    """The distinct INDELs in the CIGARs of reads ``members`` of
    ``batch``, with their read support counts, in order of first
    observation (read by read in ``members`` order, each read's
    elements left to right); inserted bases come from the batch's
    producer without building a read."""
    kinds, spans = batch.ops
    starts = batch.op_at[members]
    counts = batch.op_at[members + 1] - starts
    elements = (np.arange(counts.sum())
                + np.repeat(starts - (np.cumsum(counts) - counts), counts))
    elements = elements[(kinds[elements] == INSERTION)
                        | (kinds[elements] == DELETION)]
    read, ref_pos, read_offset = (column[elements]
                                  for column in batch.layout())
    inserted, lengths = kinds[elements] == INSERTION, spans[elements]
    bases = batch._bases(read[inserted], read_offset[inserted],
                         lengths[inserted]).decode("ascii")
    support: Dict[tuple, int] = {}
    at = 0
    for is_insertion, pos, length in zip(inserted.tolist(), ref_pos.tolist(),
                                         lengths.tolist()):
        if is_insertion:
            key = (pos, CigarOp.INSERTION, length, bases[at:at + length])
            at += length
        else:
            key = (pos, CigarOp.DELETION, length, "")
        support[key] = support.get(key, 0) + 1
    return {ObservedIndel(*key): count for key, count in support.items()}


def apply_indel_to_window(
    window: str, window_start: int, indel: ObservedIndel
) -> Optional[str]:
    """Apply one INDEL to a reference window; None if it falls outside.

    Insertion: the novel bases go *before* window offset
    ``ref_pos - window_start`` (one past their anchor base, matching the
    :class:`ObservedIndel` convention); the anchor must lie inside the
    window so realigned reads have a left anchor. Deletion: the bases at
    window offsets ``[ref_pos - window_start, ... + length)`` are removed.
    """
    offset = indel.ref_pos - window_start
    if indel.op is CigarOp.INSERTION:
        if offset < 1 or offset > len(window):
            return None
        return window[:offset] + indel.inserted + window[offset:]
    if offset < 0 or offset + indel.length > len(window):
        return None
    return window[:offset] + window[offset + indel.length :]


@dataclass(frozen=True)
class ConsensusWindow:
    """A target's consensus window and the site built over it.

    ``indels`` is parallel to ``site.consensuses``: ``None`` for the
    reference (index 0), and the :class:`ObservedIndel` each alternate
    consensus was built from -- the information the host needs to
    reconstruct realigned reads' reference-space CIGARs. ``indices``,
    parallel to the site's reads, are their indices in the batch
    :func:`build_site` was given.
    """

    site: RealignmentSite
    indels: Tuple[Optional[ObservedIndel], ...]
    indices: Tuple[int, ...]


def realigned_read_placement(
    indel: Optional[ObservedIndel],
    window_start: int,
    consensus_offset: int,
    read_length: int,
) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """Translate a consensus-space realignment into reference space.

    The kernel (Algorithm 2) reports the read's winning offset ``k``
    against the picked consensus; this host-side step produces the
    read's reference position and CIGAR, ``(pos, kinds, lengths)``, the
    CIGAR as a batch's ``ops`` columns (element kind codes, see
    :data:`repro.genomics.read.OPS`, and lengths), so a caller compares
    it with the read's columns without building a
    :class:`~repro.genomics.cigar.Cigar`:

    - a read that does not span the consensus's INDEL maps gap-free
      (``{n}M``) at the equivalent reference coordinate;
    - a read spanning an insertion carries an ``I`` element (a read
      starting *inside* the inserted bases gets them soft-clipped --
      there is no reference anchor to their left);
    - a read spanning a deletion carries a ``D`` element.

    Every element has a positive length, and no two neighbours share a
    kind.
    """
    k, n = consensus_offset, read_length
    if indel is None:
        return window_start + k, (MATCH,), (n,)
    d = indel.ref_pos - window_start  # window offset of the INDEL site
    length = indel.length
    if indel.op is CigarOp.INSERTION:
        # Consensus layout: [0, d) = window[0, d), [d, d+length) = the
        # inserted bases, beyond that window shifted right by `length`.
        if k + n <= d:
            return window_start + k, (MATCH,), (n,)
        if k >= d + length:
            return window_start + k - length, (MATCH,), (n,)
        if k >= d:
            # Read starts inside the inserted bases: soft-clip them.
            clipped = min(d + length - k, n)
            if n > clipped:
                return window_start + d, (SOFT_CLIP, MATCH), (clipped,
                                                              n - clipped)
            return window_start + d, (SOFT_CLIP,), (clipped,)
        leading = d - k  # matched bases before the insertion
        inserted = min(length, n - leading)
        trailing = n - leading - inserted
        if trailing > 0:
            return window_start + k, (MATCH, INSERTION, MATCH), (
                leading, inserted, trailing)
        return window_start + k, (MATCH, INSERTION), (leading, inserted)
    # Deletion: consensus = window[:d] + window[d + length:].
    if k + n <= d:
        return window_start + k, (MATCH,), (n,)
    if k >= d:
        return window_start + k + length, (MATCH,), (n,)
    leading = d - k
    return window_start + k, (MATCH, DELETION, MATCH), (leading, length,
                                                        n - leading)


def build_site(
    target: RealignmentTarget,
    batch: ReadBatch,
    anchored: Sequence[int],
    reference: ReferenceGenome,
    limits: SiteLimits = PAPER_LIMITS,
) -> Optional[ConsensusWindow]:
    """Assemble the :class:`RealignmentSite` for one target from the
    reads it claims, ``anchored`` (indices into ``batch``, ascending),
    reading only the batch's columns.

    No membership rule runs here
    (:meth:`~repro.realign.realigner.IndelRealigner.build_sites`
    decides it; :func:`repro.realign.targets.reads_for_target` states
    it read by read). Returns ``None`` when the target yields no usable
    site: no reads, or no alternate consensus (nothing to realign
    against). The site addresses ``batch.buffer``
    (:meth:`RealignmentSite.from_buffer`).

    The window is sized so that every consensus -- including deletion
    consensuses, which are shorter than the window -- remains at least as
    long as the longest read, guaranteeing ``m - n + 1 >= 1`` offsets for
    every pair.
    """
    anchored = np.asarray(anchored, dtype=np.int64)
    if not anchored.size:
        return None
    columns = batch.columns
    if anchored.size > limits.max_reads:
        # Paper: "we generate a maximum of 256 reads per target." By
        # (pos, name), ties in input order; a name from the buffer is
        # its UTF-8 bytes, which sort as the text does.
        keys = list(zip(columns[POS][anchored].tolist(),
                        batch.names(anchored)))
        order = sorted(range(anchored.size), key=keys.__getitem__)
        anchored = anchored[order[: limits.max_reads]]

    support = observed_indels(batch, anchored)
    if not support:
        return None
    lengths = columns[LENGTH][anchored]
    max_read_len = int(lengths.max())
    max_deletion = max(
        (ind.length for ind in support if ind.op is CigarOp.DELETION), default=0
    )

    # Window: cover every anchored read plus flanks wide enough that a
    # deletion consensus still fits the longest read.
    pad = max_read_len + max_deletion
    window_start = max(0, int(columns[POS][anchored].min()) - pad)
    window_end = min(
        reference.length(target.chrom),
        int(columns[END][anchored].max()) + pad,
    )
    if window_end - window_start > limits.max_consensus_length:
        # Centre the window on the target and clamp to the hardware limit.
        centre = (target.start + target.end) // 2
        half = limits.max_consensus_length // 2
        window_start = max(0, centre - half)
        window_end = min(
            reference.length(target.chrom),
            window_start + limits.max_consensus_length,
        )
    window = reference.fetch(target.chrom, window_start, window_end)

    ranked = sorted(
        support.items(), key=lambda item: (-item[1], item[0].ref_pos, item[0].op.value)
    )
    consensuses: List[str] = [window]
    indels: List[Optional[ObservedIndel]] = [None]
    seen = {window}
    for indel, _count in ranked:
        if len(consensuses) >= limits.max_consensuses:
            break
        candidate = apply_indel_to_window(window, window_start, indel)
        if candidate is None or candidate in seen:
            continue
        if len(candidate) < max_read_len:
            continue  # deletion too large for this window; skip
        if len(candidate) > limits.max_consensus_length:
            continue
        consensuses.append(candidate)
        indels.append(indel)
        seen.add(candidate)
    if len(consensuses) < 2:
        return None

    # Keep only reads that fit every consensus (site invariant m >= n).
    usable = anchored[lengths <= min(len(c) for c in consensuses)]
    if not usable.size:
        return None
    site = RealignmentSite.from_buffer(
        target.chrom, window_start, tuple(consensuses), batch.buffer,
        columns[SEQ_AT][usable], columns[QUAL_AT][usable],
        columns[LENGTH][usable], limits)
    return ConsensusWindow(site=site, indels=tuple(indels),
                           indices=tuple(usable.tolist()))
