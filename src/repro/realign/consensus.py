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

from repro.genomics.cigar import Cigar, CigarOp
from repro.genomics.read import Read
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


def observed_indels(reads: Sequence[Read]) -> Dict[ObservedIndel, int]:
    """Collect distinct INDELs with their read support counts."""
    support: Dict[ObservedIndel, int] = {}
    for read in reads:
        if not read.is_mapped or not read.has_indel:
            continue
        read_offset = 0
        ref_pos = read.pos
        for op, length in read.cigar:
            if op is CigarOp.INSERTION:
                observation = ObservedIndel(
                    ref_pos=ref_pos,
                    op=op,
                    length=length,
                    inserted=read.seq[read_offset : read_offset + length],
                )
                support[observation] = support.get(observation, 0) + 1
            elif op is CigarOp.DELETION:
                observation = ObservedIndel(ref_pos=ref_pos, op=op, length=length)
                support[observation] = support.get(observation, 0) + 1
            if op.consumes_read:
                read_offset += length
            if op.consumes_reference:
                ref_pos += length
    return support


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
    parallel to ``reads``, are their positions in the reads
    :meth:`~repro.realign.realigner.IndelRealigner.build_sites` was
    given (empty for a window :func:`build_site` returns).
    """

    site: RealignmentSite
    reads: Tuple[Read, ...]  # the Read objects, parallel to site.reads
    indels: Tuple[Optional[ObservedIndel], ...] = ()
    indices: Tuple[int, ...] = ()


def realigned_read_placement(
    indel: Optional[ObservedIndel],
    window_start: int,
    consensus_offset: int,
    read_length: int,
) -> Tuple[int, "Cigar"]:
    """Translate a consensus-space realignment into reference space.

    The kernel (Algorithm 2) reports the read's winning offset ``k``
    against the picked consensus; this host-side step produces the
    read's reference position and CIGAR:

    - a read that does not span the consensus's INDEL maps gap-free
      (``{n}M``) at the equivalent reference coordinate;
    - a read spanning an insertion carries an ``I`` element (a read
      starting *inside* the inserted bases gets them soft-clipped --
      there is no reference anchor to their left);
    - a read spanning a deletion carries a ``D`` element.
    """
    k, n = consensus_offset, read_length
    if indel is None:
        return window_start + k, Cigar.matched(n)
    d = indel.ref_pos - window_start  # window offset of the INDEL site
    length = indel.length
    if indel.op is CigarOp.INSERTION:
        # Consensus layout: [0, d) = window[0, d), [d, d+length) = the
        # inserted bases, beyond that window shifted right by `length`.
        if k + n <= d:
            return window_start + k, Cigar.matched(n)
        if k >= d + length:
            return window_start + k - length, Cigar.matched(n)
        if k >= d:
            # Read starts inside the inserted bases: soft-clip them.
            clipped = min(d + length - k, n)
            elements = [(CigarOp.SOFT_CLIP, clipped)]
            if n > clipped:
                elements.append((CigarOp.MATCH, n - clipped))
            return window_start + d, Cigar.from_elements(elements)
        leading = d - k  # matched bases before the insertion
        inserted = min(length, n - leading)
        trailing = n - leading - inserted
        elements = [(CigarOp.MATCH, leading), (CigarOp.INSERTION, inserted)]
        if trailing > 0:
            elements.append((CigarOp.MATCH, trailing))
        return window_start + k, Cigar.from_elements(elements)
    # Deletion: consensus = window[:d] + window[d + length:].
    if k + n <= d:
        return window_start + k, Cigar.matched(n)
    if k >= d:
        return window_start + k + length, Cigar.matched(n)
    leading = d - k
    elements = [
        (CigarOp.MATCH, leading),
        (CigarOp.DELETION, length),
        (CigarOp.MATCH, n - leading),
    ]
    return window_start + k, Cigar.from_elements(elements)


def build_site(
    target: RealignmentTarget,
    anchored: Sequence[Read],
    reference: ReferenceGenome,
    limits: SiteLimits = PAPER_LIMITS,
) -> Optional[ConsensusWindow]:
    """Assemble the :class:`RealignmentSite` for one target from its
    anchored reads.

    ``anchored`` are the reads the target claims: no membership rule runs
    here (:meth:`~repro.realign.realigner.IndelRealigner.build_sites`
    decides it, on columns; :func:`repro.realign.targets.reads_for_target`
    states it read by read). Returns ``None`` when the target yields no
    usable site: no reads, or no alternate consensus (nothing to
    realign against).

    The window is sized so that every consensus -- including deletion
    consensuses, which are shorter than the window -- remains at least as
    long as the longest read, guaranteeing ``m - n + 1 >= 1`` offsets for
    every pair.
    """
    if not anchored:
        return None
    if len(anchored) > limits.max_reads:
        # Paper: "we generate a maximum of 256 reads per target."
        anchored = sorted(anchored, key=lambda r: (r.pos, r.name))[: limits.max_reads]

    support = observed_indels(anchored)
    if not support:
        return None
    max_read_len = max(len(read) for read in anchored)
    max_deletion = max(
        (ind.length for ind in support if ind.op is CigarOp.DELETION), default=0
    )

    # Window: cover every anchored read plus flanks wide enough that a
    # deletion consensus still fits the longest read.
    pad = max_read_len + max_deletion
    window_start = max(0, min(read.pos for read in anchored) - pad)
    window_end = min(
        reference.length(target.chrom),
        max(read.end for read in anchored) + pad,
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
    min_cons_len = min(len(c) for c in consensuses)
    usable = [read for read in anchored if len(read) <= min_cons_len]
    if not usable:
        return None
    site = RealignmentSite(
        chrom=target.chrom,
        start=window_start,
        consensuses=tuple(consensuses),
        reads=tuple(read.seq for read in usable),
        quals=tuple(read.quals for read in usable),
        limits=limits,
    )
    return ConsensusWindow(site=site, reads=tuple(usable), indels=tuple(indels))
