"""Bit-packed SWAR evaluation of the WHD kernel (GateKeeper-style).

The paper's hardware wins by exploiting *bit-level* parallelism: each
WHD compute unit compares many bases per cycle with wide XOR networks.
GateKeeper (Alser et al., see PAPERS.md) showed the same base-comparison
work maps naturally onto wide bitwise operations in commodity hardware;
this module brings that idea to the software data plane as a third
exact kernel beside the scalar transcription
(:func:`repro.realign.whd.min_whd_pair`) and the FFT-batched engine
(:mod:`repro.engine.batch`).

The pipeline, per (consensus, read) pair:

1. **2-bit packing.** Bases encode as 2-bit codes (A=0, C=1, G=2, T=3)
   packed 32 per ``uint64`` word; ``N`` shares code 0 and carries a
   separate per-position flag bit, so five symbols fit the 2-bit lanes
   without widening them.
2. **SWAR mismatch masks.** For every offset ``k`` the packed read is
   XORed against a pre-shifted packed consensus window; folding the two
   code bits (``(x | x >> 1) & 0x5555...``) yields one mismatch bit per
   base, 32 bases per word op. ``N`` disagreement is ORed in from the
   flag planes (``N`` matches only ``N``, exactly like the scalar
   kernel's character comparison), and padding past the read's true
   length is masked off.
3. **Count screening.** A population count over each offset's mask
   gives its mismatch *count*; with per-read quality extremes this
   bounds every offset's WHD (``minq*cnt <= WHD <= maxq*cnt``), and
   offsets whose lower bound exceeds the best upper bound can never be
   the minimum (they exceed it *strictly*, so the earliest-minimum tie
   rule is preserved too).
4. **Bit-sliced quality gather.** Only the surviving offsets are
   evaluated exactly: read qualities are bit-sliced into 8 planes
   aligned with the mismatch lanes, and the weighted sum at the
   mismatching positions is recovered as
   ``sum_b 2^b * popcount(mask & plane_b)`` -- still pure word-wide
   ops, no per-base unpacking.

The resulting grids -- and therefore every ``SiteResult`` -- are
cell-identical to the scalar kernel's (property-tested in
``tests/test_kernel_dispatch.py``, pinned against ``tests/golden/``).
Cost scales as ``O(K * ceil(n/32))`` word ops per pair plus an ``O(m)``
per-consensus shift precompute, with none of the FFT path's transform
setup. This is the kernel the native tier degrades to on a host with
no compiled backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.realign.site import RealignmentSite
from repro.realign.whd import (
    SiteResult,
    reads_realignments,
    score_and_select,
)

#: Bases per 64-bit word at 2 bits per base.
BASES_PER_WORD = 32

#: Even-bit lane mask: one bit per base after the XOR fold.
_EVEN = np.uint64(0x5555_5555_5555_5555)

_ONE = np.uint64(1)

#: ASCII -> 2-bit code. ``N`` deliberately aliases ``A`` (code 0); the
#: separate N-flag plane restores exact five-symbol semantics.
_CODE_LUT = np.zeros(256, dtype=np.uint8)
for _i, _b in enumerate("ACGT"):
    _CODE_LUT[ord(_b)] = _i

#: Bit positions of the 32 base lanes within one word (base ``i`` of a
#: word occupies bits ``2i`` and ``2i+1``; flags live on bit ``2i``).
_LANE_SHIFTS = (2 * np.arange(BASES_PER_WORD, dtype=np.uint64)).astype(np.uint64)

#: Quality scores are uint8, so 8 bit-planes cover any legal score
#: (Phred caps at 93 in practice; the planes cost nothing when empty).
QUALITY_PLANES = 8

#: Byte -> popcount LUT for the numpy<2.0 fallback. Defined
#: unconditionally so the fallback stays unit-testable on numpy>=2.0
#: hosts (``tests/test_kernel_dispatch.py::TestPopcountFallback``).
_POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _popcount_rows_lut(words: np.ndarray) -> np.ndarray:
    """LUT popcount over the last axis of a ``(..., W)`` uint64 array.

    Viewing ``uint64`` words as bytes widens only the *last* axis (by
    8x), so summing over ``axis=-1`` preserves every leading dimension.
    That matters: the screening passes call this on both ``(K, W)``
    pair masks and the grouped ``(C, K, G, Wr)`` mask tensor, and
    collapsing the leading dims would silently misshape the counts the
    minima reductions run over.
    """
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _POP8[as_bytes].sum(axis=-1, dtype=np.int64)


if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        """Per-row population count of a ``(..., W)`` uint64 array."""
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
else:  # pragma: no cover - binding taken only on numpy < 2.0
    _popcount_rows = _popcount_rows_lut


def _pack_even_bits(flags: np.ndarray) -> np.ndarray:
    """Pack 0/1 flags (one per base) onto the even bits of uint64 words."""
    length = flags.size
    words = (length + BASES_PER_WORD - 1) // BASES_PER_WORD
    padded = np.zeros(words * BASES_PER_WORD, dtype=np.uint64)
    padded[:length] = flags
    return np.bitwise_or.reduce(
        padded.reshape(words, BASES_PER_WORD) << _LANE_SHIFTS, axis=1
    )


def pack_bases(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Encode ASCII bases as 2-bit-packed words plus an N-flag plane.

    Returns ``(words, nmask)``; base ``i`` occupies bits ``2(i % 32)``
    and ``2(i % 32) + 1`` of ``words[i // 32]``, and ``nmask`` carries a
    set bit at lane position ``2(i % 32)`` where the base is ``N``.
    Padding lanes past the sequence end are zero in both planes.

    Figure 4's reference consensus packs into a single word (7 bases,
    2 bits each -- ``C C T T A G A`` is ``01 01 11 11 00 10 00`` read
    low lane first):

    >>> from repro.genomics.sequence import seq_to_array
    >>> words, nmask = pack_bases(seq_to_array("CCTTAGA"))
    >>> format(int(words[0]), "014b")
    '00100011110101'
    >>> int(nmask[0])
    0
    """
    codes = _CODE_LUT[arr].astype(np.uint64)
    length = codes.size
    words = (length + BASES_PER_WORD - 1) // BASES_PER_WORD
    padded = np.zeros(words * BASES_PER_WORD, dtype=np.uint64)
    padded[:length] = codes
    packed = np.bitwise_or.reduce(
        padded.reshape(words, BASES_PER_WORD) << _LANE_SHIFTS, axis=1
    )
    nmask = _pack_even_bits((arr == ord("N")).astype(np.uint64))
    return packed, nmask


@dataclass(frozen=True)
class PackedRead:
    """One read's kernel inputs in SWAR form (shared across consensuses)."""

    words: np.ndarray  # (Wr,) uint64 2-bit base codes
    nmask: np.ndarray  # (Wr,) uint64 N flags on even bits
    valid: np.ndarray  # (Wr,) uint64 even-bit mask of true positions
    qplanes: np.ndarray  # (QUALITY_PLANES, Wr) uint64 quality bit-slices
    qlow: np.ndarray  # (n+1,) cumsum of sorted quals: tight WHD lower bound
    qhigh: np.ndarray  # (n+1,) reverse cumsum: tight WHD upper bound
    n: int
    minq: int
    maxq: int

    @classmethod
    def pack(cls, arr: np.ndarray, quals: np.ndarray) -> "PackedRead":
        words, nmask = pack_bases(arr)
        valid = _pack_even_bits(np.ones(arr.size, dtype=np.uint64))
        # All 8 quality bit-planes in one pass: (8, n) bits padded and
        # OR-folded onto the even lanes, mirroring the base packing.
        bits = (
            quals[None, :].astype(np.uint64)
            >> np.arange(QUALITY_PLANES, dtype=np.uint64)[:, None]
        ) & _ONE
        padded = np.zeros(
            (QUALITY_PLANES, words.size * BASES_PER_WORD), dtype=np.uint64
        )
        padded[:, : arr.size] = bits
        qplanes = np.bitwise_or.reduce(
            padded.reshape(QUALITY_PLANES, words.size, BASES_PER_WORD)
            << _LANE_SHIFTS,
            axis=2,
        )
        # Order statistics for count screening: with ``c`` mismatches,
        # the WHD is at least the sum of the ``c`` smallest qualities
        # and at most the sum of the ``c`` largest -- far tighter than
        # ``minq*c <= WHD <= maxq*c`` when the quality spread is narrow
        # (the common case), so far fewer offsets need the exact gather.
        ordered = np.sort(quals.astype(np.int64))
        qlow = np.concatenate(([0], np.cumsum(ordered)))
        qhigh = np.concatenate(([0], np.cumsum(ordered[::-1])))
        return cls(
            words=words, nmask=nmask, valid=valid, qplanes=qplanes,
            qlow=qlow, qhigh=qhigh,
            n=int(arr.size), minq=int(quals.min()), maxq=int(quals.max()),
        )


@dataclass(frozen=True)
class PackedConsensus:
    """One consensus pre-shifted to all 32 bit phases.

    ``shifted[p]`` is the packed encoding of the consensus suffix
    starting at base ``p``, so the window at offset ``k`` is the word
    slice ``shifted[k % 32][k // 32 : k // 32 + Wr]`` -- a pure gather,
    no per-offset bit arithmetic.
    """

    shifted: np.ndarray  # (32, W) uint64 base words
    shifted_n: np.ndarray  # (32, W) uint64 N-flag words
    m: int
    has_n: bool = False

    @classmethod
    def pack(cls, arr: np.ndarray, pad_words: int) -> "PackedConsensus":
        words, nmask = pack_bases(arr)
        return cls(
            shifted=_phase_shifts(words, pad_words),
            shifted_n=_phase_shifts(nmask, pad_words),
            m=int(arr.size),
            has_n=bool(nmask.any()),
        )

    def windows(self, K: int, read_words: int) -> Tuple[np.ndarray, np.ndarray]:
        """Packed consensus windows for offsets ``0..K-1``: ``(K, Wr)``."""
        offsets = np.arange(K)
        phase = offsets & (BASES_PER_WORD - 1)
        cols = (offsets >> 5)[:, None] + np.arange(read_words)[None, :]
        return (
            self.shifted[phase[:, None], cols],
            self.shifted_n[phase[:, None], cols],
        )


def _phase_shifts(words: np.ndarray, pad_words: int) -> np.ndarray:
    """All 32 bit-phase shifts of a packed sequence, zero-padded."""
    count = words.size
    out = np.zeros((BASES_PER_WORD, count + pad_words), dtype=np.uint64)
    out[0, :count] = words
    nxt = np.zeros(count, dtype=np.uint64)
    nxt[: count - 1] = words[1:]
    # Phases 1..31 in one vector op each way; phase 0 is handled above
    # because a 64-bit shift of the carry word would be undefined.
    shifts = _LANE_SHIFTS[1:, None]  # (31, 1): 2, 4, ..., 62
    out[1:, :count] = (words[None, :] >> shifts) | (
        nxt[None, :] << (np.uint64(64) - shifts)
    )
    return out


def mismatch_counts(cons: str, read: str) -> List[int]:
    """Per-offset mismatch counts from the SWAR mask pipeline.

    The bit-parallel analogue of counting ``cons[k + i] != read[i]``
    positions per offset -- stage 2 + 3 of the module pipeline with the
    quality gather left out.

    Figure 4, read 0 (``TGAA``) against the reference consensus
    (``CCTTAGA``): at ``k = 2`` only read bases 1 and 3 mismatch, the
    fewest of any offset (the weighted minimum lands there too):

    >>> mismatch_counts("CCTTAGA", "TGAA")
    [4, 3, 2, 2]
    """
    from repro.genomics.sequence import seq_to_array

    cons_arr = seq_to_array(cons)
    read_arr = seq_to_array(read)
    if read_arr.size == 0 or cons_arr.size < read_arr.size:
        raise ValueError(
            f"invalid pair shapes (m={cons_arr.size}, n={read_arr.size})"
        )
    packed_read = PackedRead.pack(
        read_arr, np.zeros(read_arr.size, dtype=np.uint8)
    )
    read_words = packed_read.words.size
    packed_cons = PackedConsensus.pack(cons_arr, pad_words=read_words + 1)
    K = cons_arr.size - read_arr.size + 1
    win_b, win_n = packed_cons.windows(K, read_words)
    return _offset_masks(win_b, win_n, packed_read)[1].tolist()


def _offset_masks(
    win_b: np.ndarray, win_n: np.ndarray, read: PackedRead
) -> Tuple[np.ndarray, np.ndarray]:
    """Mismatch masks ``(K, Wr)`` and their per-offset counts ``(K,)``."""
    x = win_b ^ read.words[None, :]
    masks = (x | (x >> _ONE)) & _EVEN
    masks |= win_n ^ read.nmask[None, :]
    masks &= read.valid[None, :]
    return masks, _popcount_rows(masks)


#: Soft cap, in uint64 elements, on the ``(K, G, Wr)`` mask tensor one
#: read-group evaluation materializes; groups are chunked to stay under
#: it (8 MiB of words -- small sites never chunk, paper-limit sites do).
_WORD_BUDGET = 1 << 20

#: Invalid-offset sentinel for the count bounds; any real bound is
#: at most 256 bases x Phred 93, far below this.
_BOUND_SENTINEL = np.int64(1) << 40


@dataclass(frozen=True)
class _ReadGroup:
    """Stacked planes for every read sharing one packed word count.

    Built once per site; each consensus then reuses the stacks, so the
    per-consensus cost is pure SWAR arithmetic, not re-packing.
    """

    columns: np.ndarray  # (G,) grid column of each read
    words: np.ndarray  # (G, Wr)
    nmask: np.ndarray  # (G, Wr)
    valid_last: np.ndarray  # (G,) even-bit validity of the final word
    qmat: np.ndarray  # (G, Wr*32) per-base qualities, zero-padded
    qlow: np.ndarray  # (G, n_max+1) sorted-quality prefix sums
    qhigh: np.ndarray  # (G, n_max+1)
    lengths: np.ndarray  # (G,)
    has_n: bool

    @property
    def read_words(self) -> int:
        return self.words.shape[1]

    @staticmethod
    def build(
        arrays: Sequence[np.ndarray],
        quals: Sequence[np.ndarray],
        indices: List[int],
    ) -> "_ReadGroup":
        """Pack every read in one batched pass (no per-read numpy calls).

        All members share a word count ``Wr``, so each read fills words
        ``0..Wr-2`` completely -- only the final word can be partial,
        which is why a single ``valid_last`` column suffices.
        """
        lengths = np.array([arrays[j].size for j in indices], dtype=np.int64)
        Wr = int((int(lengths.max()) + BASES_PER_WORD - 1) // BASES_PER_WORD)
        span = Wr * BASES_PER_WORD
        G = len(indices)
        mat = np.zeros((G, span), dtype=np.uint8)
        qmat = np.zeros((G, span), dtype=np.int64)
        for row, j in enumerate(indices):
            mat[row, : lengths[row]] = arrays[j]
            qmat[row, : lengths[row]] = quals[j]
        in_len = np.arange(span)[None, :] < lengths[:, None]

        def fold(flags: np.ndarray) -> np.ndarray:
            # OR the per-base 2-bit lanes of each 32-base block into one
            # word; input is (..., span) of small uint64 values.
            shaped = flags.reshape(flags.shape[:-1] + (Wr, BASES_PER_WORD))
            return np.bitwise_or.reduce(shaped << _LANE_SHIFTS, axis=-1)

        words = fold(_CODE_LUT[mat].astype(np.uint64))
        n_flags = mat == ord("N")
        has_n = bool(n_flags.any())
        nmask = fold(n_flags.astype(np.uint64))
        valid = fold(in_len.astype(np.uint64))

        # Order-statistic bound tables: with ``c`` mismatches the WHD is
        # at least the sum of the ``c`` smallest qualities and at most
        # the sum of the ``c`` largest. Padding (rows shorter than the
        # group max) is never gathered -- counts never exceed a read's
        # own length -- so the pad values only need to sort harmlessly.
        width = int(lengths.max())
        asc = np.sort(
            np.where(in_len[:, :width], qmat[:, :width], _BOUND_SENTINEL),
            axis=1,
        )
        desc = np.sort(qmat[:, :width], axis=1)[:, ::-1]  # pads are 0
        zero = np.zeros((G, 1), dtype=np.int64)
        return _ReadGroup(
            columns=np.asarray(indices, dtype=np.int64),
            words=words,
            nmask=nmask,
            valid_last=valid[:, -1],
            qmat=qmat,
            qlow=np.concatenate([zero, np.cumsum(asc, axis=1)], axis=1),
            qhigh=np.concatenate([zero, np.cumsum(desc, axis=1)], axis=1),
            lengths=lengths,
            has_n=has_n,
        )


@dataclass(frozen=True)
class _ConsensusSet:
    """Every consensus of a site pre-shifted and padded to one width.

    Stacking the per-consensus phase tables lets one fancy-indexed
    gather produce the windows of *all* consensuses at once, so the
    whole ``(C, K, G)`` screening grid for a read group comes out of a
    single set of elementwise passes -- Python-call overhead stops
    scaling with ``C``.
    """

    shifted: np.ndarray  # (C, 32, W) uint64 base words
    shifted_n: np.ndarray  # (C, 32, W) uint64 N-flag words
    m: np.ndarray  # (C,) consensus lengths
    has_n: bool

    @staticmethod
    def build(
        arrays: Sequence[np.ndarray], pad_words: int
    ) -> "_ConsensusSet":
        packed = [PackedConsensus.pack(arr, pad_words) for arr in arrays]
        width = max(p.shifted.shape[1] for p in packed)
        shifted = np.zeros((len(packed), BASES_PER_WORD, width),
                           dtype=np.uint64)
        shifted_n = np.zeros_like(shifted)
        for i, p in enumerate(packed):
            shifted[i, :, : p.shifted.shape[1]] = p.shifted
            shifted_n[i, :, : p.shifted_n.shape[1]] = p.shifted_n
        return _ConsensusSet(
            shifted=shifted,
            shifted_n=shifted_n,
            m=np.array([p.m for p in packed], dtype=np.int64),
            has_n=any(p.has_n for p in packed),
        )

    def windows(self, K: int, read_words: int, with_n: bool):
        """Windows of every consensus at offsets ``0..K-1``: ``(C, K, Wr)``."""
        offsets = np.arange(K)
        phase = (offsets & (BASES_PER_WORD - 1))[:, None]
        cols = (offsets >> 5)[:, None] + np.arange(read_words)[None, :]
        win_b = self.shifted[:, phase, cols]
        win_n = self.shifted_n[:, phase, cols] if with_n else None
        return win_b, win_n


def _group_minima(
    cset: _ConsensusSet,
    group: _ReadGroup,
    out_w: np.ndarray,
    out_i: np.ndarray,
) -> int:
    """Earliest minima of every consensus against one read group.

    All reads in the group share a word count, so one window gather and
    one broadcast XOR serve every (consensus, read) pair. Offsets are
    screened by order-statistic count bounds first (``qlow``/``qhigh``
    on :class:`_ReadGroup`); survivors get the exact bit-sliced quality
    sum. A screened-out offset satisfies
    ``WHD(k) >= qlow[cnt(k)] > min_k' qhigh[cnt(k')] >= min WHD``, i.e.
    it exceeds the true minimum *strictly*, so both the minimum value
    and its earliest offset are preserved exactly. Returns the number
    of offsets that needed the exact evaluation.
    """
    read_words = group.read_words
    C = cset.m.size
    m_max = int(cset.m.max())
    uniform_m = int(cset.m.min()) == m_max
    track_n = cset.has_n or group.has_n
    width = group.qlow.shape[1] - 1  # group's longest read length
    evaluated = 0

    # Longest reads first: a chunk's offset range is set by its
    # *shortest* member, so length-sorted chunks keep the (C, K, G, Wr)
    # tensor tight instead of paying the whole group's worst-case K.
    order = np.argsort(-group.lengths, kind="stable")
    K_per = m_max - group.lengths[order] + 1
    pos = 0
    while pos < order.size:
        # Greedy chunk sizing against the word budget: taking t reads
        # costs C * K_per[pos+t-1] * t * Wr words, monotone in t, so
        # searchsorted finds the largest affordable chunk. A chunk also
        # breaks where K would grow past ~1.25x its first member's --
        # short reads in a chunk pay the longest K of the chunk, and
        # capping that stretch keeps the sorted order's benefit.
        tail = K_per[pos:]
        cost = C * tail * np.arange(1, tail.size + 1) * read_words
        take = max(1, int(np.searchsorted(cost, _WORD_BUDGET, "right")))
        stretch = int(np.searchsorted(
            tail, tail[0] + (tail[0] >> 2) + 8, "right"
        ))
        take = max(1, min(take, stretch))
        sel = order[pos : pos + take]
        pos += take
        K = int(m_max - group.lengths[sel].min() + 1)
        win_b, win_n = cset.windows(K, read_words, track_n)
        # (C, K, G, Wr) mismatch masks, built in place.
        x = win_b[:, :, None, :] ^ group.words[None, None, sel, :]
        masks = x >> _ONE
        masks |= x
        masks &= _EVEN
        if track_n:
            # N matches only N: fold the XOR of the N-flag planes in.
            masks |= win_n[:, :, None, :] ^ group.nmask[None, None, sel, :]
        # Words 0..Wr-2 are full for every read in the group (shared
        # word count), so only the final word needs the validity mask.
        masks[..., -1] &= group.valid_last[None, None, sel]
        counts = _popcount_rows(masks)  # (C, K, G)
        uniform = uniform_m and group.lengths[sel].min() == group.lengths[sel].max()
        if uniform:
            in_range = None
            cmin = counts.min(axis=1)  # (C, G)
        else:
            # Each pair only has offsets 0..m_i-n_j; out-of-range cells
            # must not contribute to cmin (their counts are junk) --
            # the ``width`` sentinel maps them to the read's total
            # quality, an always-safe upper bound.
            Ks = cset.m[:, None] - group.lengths[None, sel] + 1  # (C, G)
            in_range = np.arange(K)[None, :, None] < Ks[:, None, :]
            cmin = np.where(in_range, counts, width).min(axis=1)
        # qhigh is nondecreasing in the count, so the pair's tightest
        # upper bound is qhigh at its *minimum* count -- one small
        # (C, G) gather instead of a full (C, K, G) bound grid.
        rows = np.arange(sel.size)
        best_upper = group.qhigh[sel][rows[None, :], cmin]  # (C, G)
        lower = group.qlow[sel][rows[None, None, :], counts]
        cand = lower <= best_upper[:, None, :]
        if in_range is not None:
            cand &= in_range

        # Candidate cells scanned (consensus, read)-major with offsets
        # ascending inside each pair, so reduceat below finds each
        # pair's earliest minimum (the strict-< update rule). Every
        # pair keeps at least one candidate (its argmin-of-count
        # offset), so the segments enumerate all C x G pairs in order.
        c_idx, g_idx, k_idx = np.nonzero(cand.transpose(0, 2, 1))
        surviving = masks[c_idx, k_idx, g_idx]  # (Ncand, Wr)
        # Exact WHD of each surviving offset: unpack the even-lane
        # mismatch bits back to per-base 0/1 and dot with the read's
        # qualities. Screening keeps survivors to a few percent of the
        # grid, so this gather touches far fewer cells than a bit-
        # sliced plane pass over the full group would.
        mism = (
            (surviving[:, :, None] >> _LANE_SHIFTS[None, None, :]) & _ONE
        ).view(np.int64).reshape(g_idx.size, -1)
        whd = np.einsum("ns,ns->n", mism, group.qmat[sel[g_idx]])
        # Encoding key = whd * K + k makes the minimum key the minimum
        # WHD at its earliest offset (same trick as engine/batch.py).
        key = whd * K + k_idx
        pairs = c_idx * sel.size + g_idx
        per_pair = np.bincount(pairs, minlength=C * sel.size)
        starts = np.concatenate(([0], np.cumsum(per_pair[:-1])))
        best = np.minimum.reduceat(key, starts).reshape(C, -1)
        out_w[:, group.columns[sel]] = best // K
        out_i[:, group.columns[sel]] = best % K
        evaluated += int(g_idx.size)
    return evaluated


def _grids_bitpacked(
    site: RealignmentSite,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Fill the ``(C, R)`` grids; returns ``(min_whd, min_idx, exact)``.

    ``exact`` counts the offsets that needed the bit-sliced quality
    gather after count screening (the kernel's analogue of the FFT
    path's ``cells_evaluated``).
    """
    C, R = site.num_consensuses, site.num_reads
    arrays = site.read_arrays()
    by_words: Dict[int, List[int]] = {}
    for j, arr in enumerate(arrays):
        words = (arr.size + BASES_PER_WORD - 1) // BASES_PER_WORD
        by_words.setdefault(words, []).append(j)
    pad_words = max(by_words) + 1
    groups = [
        _ReadGroup.build(arrays, site.quals, idx)
        for idx in by_words.values()
    ]

    cset = _ConsensusSet.build(site.consensus_arrays(), pad_words)
    min_whd = np.empty((C, R), dtype=np.int64)
    min_idx = np.empty((C, R), dtype=np.int64)
    exact_offsets = 0
    for group in groups:
        exact_offsets += _group_minima(cset, group, min_whd, min_idx)
    return min_whd, min_idx, exact_offsets


def min_whd_grid_bitpacked(
    site: RealignmentSite,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 over SWAR words: drop-in for ``min_whd_grid``.

    Cell-for-cell identical to the scalar kernel (property-tested and
    golden-pinned), computed 32 bases per word op.

    The Figure 4 worked example (``TGAA`` / ``CCTTAGA`` and friends,
    m=7, n=4, k=0..3), identically to the scalar kernel:

    >>> from repro.experiments.figure4 import build_site
    >>> mw, mi = min_whd_grid_bitpacked(build_site())
    >>> mw.tolist()
    [[30, 20], [0, 20], [55, 30]]
    >>> mi.tolist()
    [[2, 0], [3, 1], [2, 0]]
    """
    min_whd, min_idx, _ = _grids_bitpacked(site)
    return min_whd, min_idx


def realign_site_bitpacked(
    site: RealignmentSite,
    scoring: str = "similarity",
    telemetry=None,
) -> SiteResult:
    """Run Algorithms 1 + 2 on one site through the bit-packed kernel.

    Emits the same semantic ``kernel.*`` counters as
    :func:`repro.realign.whd.realign_site` (they are defined on the
    algorithm, not the implementation) plus ``bitpack.*`` counters for
    the screening stage's effectiveness.

    End to end on the Figure 4 site, identically to the scalar kernel:

    >>> from repro.experiments.figure4 import build_site
    >>> from repro.realign.whd import realign_site
    >>> site = build_site()
    >>> realign_site_bitpacked(site).same_outputs(realign_site(site))
    True
    """
    min_whd, min_idx, exact_offsets = _grids_bitpacked(site)
    best_cons, scores = score_and_select(min_whd, method=scoring)
    realign, new_pos = reads_realignments(
        min_whd, min_idx, best_cons, site.start
    )
    if telemetry is not None:
        offsets_total = sum(
            len(cons) - len(read) + 1
            for cons in site.consensuses
            for read in site.reads
        )
        telemetry.count("kernel.sites", 1)
        telemetry.count("kernel.grid_cells", int(min_whd.size))
        telemetry.count("kernel.offsets_evaluated", offsets_total)
        telemetry.count("kernel.whd_mass", int(min_whd.sum()))
        telemetry.count("kernel.reads_realigned", int(realign.sum()))
        telemetry.count("kernel.consensus_selected", int(best_cons))
        telemetry.count("bitpack.offsets_screened", offsets_total)
        telemetry.count("bitpack.offsets_exact", exact_offsets)
    return SiteResult(
        best_cons=best_cons,
        scores=scores,
        min_whd=min_whd,
        min_whd_idx=min_idx,
        realign=realign,
        new_pos=new_pos,
    )


__all__ = [
    "BASES_PER_WORD",
    "PackedConsensus",
    "PackedRead",
    "mismatch_counts",
    "min_whd_grid_bitpacked",
    "pack_bases",
    "realign_site_bitpacked",
]
