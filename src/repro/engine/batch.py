"""Batched site-at-a-time evaluation of the WHD kernel.

:func:`repro.realign.whd.min_whd_grid` walks a site's
consensus x read grid pair by pair; this module evaluates the whole
``(C, R, K)`` offset tensor at once. The trick is classic
Fischer-Paterson "string matching with mismatches": one-hot encode the
sequences per base symbol and the number of *matching* bases at every
offset of every pair is a cross-correlation, which an FFT computes for
all offsets simultaneously --

    matches[c, r, k] = sum_b (onehot_b(cons_c) * shift_k(onehot_b(read_r)))

so a site costs ``O(B * (C + R) * L log L + C * R * L)`` instead of the
sliding-window ``O(C * R * K * n)``, with all loops inside numpy and its
pocketfft (``numpy.fft``, the one FFT the declared dependency provides).

Two passes are built on this:

- a **float64 weighted pass** (``prefilter=False``): one-hot channels
  carry the quality scores, giving every WHD value directly. All values
  are integers bounded by 256 bases x Phred 93 = 23808, and the float64
  correlation error is ~1e-9 of that, so ``np.rint`` recovers the exact
  integer grid -- bit-identical to the scalar kernel (property-tested).
- a **float32 count pass** (``prefilter=True``, the default): unweighted
  channels give mismatch *counts*, from which
  :mod:`repro.engine.prefilter` bounds every WHD. Only the ~1% of cells
  the bounds cannot exclude are evaluated exactly (an integer gather,
  no floats), then a keyed ``np.minimum.reduceat`` reduces each pair's
  surviving cells to its earliest minimum.

Both passes produce grids that make ``score_and_select`` and
``reads_realignments`` decide exactly as the scalar kernel does;
eliminated consensus rows (see
:func:`repro.engine.prefilter.consensus_keep_mask`) keep
:data:`~repro.realign.whd.WHD_SENTINEL`, which can never win selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.prefilter import (
    COUNT_SENTINEL,
    consensus_keep_mask,
    offset_candidates,
    pair_bounds,
    pairs_cannot_beat_reference,
)
from repro.realign.site import RealignmentSite
from repro.realign.whd import WHD_SENTINEL

#: Soft cap, in tensor *elements*, on any one intermediate the batched
#: passes materialize; reads are chunked to stay under it. Worst-case
#: site limits (32 consensuses x 2048 bases, 256 reads) stay well under
#: a gigabyte with this cap.
_CHUNK_ELEMENT_BUDGET = 48 << 20


def fast_fft_length(n: int) -> int:
    """Smallest FFT length >= ``n`` of the form ``{1,3,5,9,15} * 2**k``.

    pocketfft handles radix-3/5 efficiently, and these composite sizes
    cut transform cost by up to ~25% versus rounding up to a power of
    two (e.g. 2304 = 9*256 instead of 4096 for a 2048+256 site).

    >>> [fast_fft_length(n) for n in (1, 7, 100, 768, 769, 2304)]
    [1, 8, 120, 768, 960, 2304]
    """
    if n <= 1:
        return 1
    best = 1 << (n - 1).bit_length()
    for mult in (3, 5, 9, 15):
        size = mult
        while size < n:
            size <<= 1
        best = min(best, size)
    return best


@dataclass(frozen=True)
class PackedSite:
    """A site's sequences padded into rectangular uint8 tensors.

    Padding bytes are 0, which matches no base symbol (symbols are ASCII
    codes) and carries quality 0, so padded positions never contribute
    to any count or weighted sum. ``bases`` is the set of symbols
    actually present, so the one-hot channel count adapts to the site
    (4 for pure ACGT, 5 when ``N`` appears).
    """

    cons: np.ndarray  # (C, m_max) uint8, zero-padded consensus bases
    reads: np.ndarray  # (R, n_max) uint8, zero-padded read bases
    quals: np.ndarray  # (R, n_max) uint8, zero-padded qualities
    mlens: np.ndarray  # (C,) int64 consensus lengths
    lens: np.ndarray  # (R,) int64 read lengths
    minq: np.ndarray  # (R,) int64 min quality per read
    maxq: np.ndarray  # (R,) int64 max quality per read
    bases: np.ndarray  # (B,) uint8 symbols present
    K: int  # offset-axis extent: m_max - min(lens) + 1
    Lf: int  # FFT length covering m_max + n_max

    @property
    def C(self) -> int:
        return self.cons.shape[0]

    @property
    def R(self) -> int:
        return self.reads.shape[0]

    @property
    def n_max(self) -> int:
        return self.reads.shape[1]

    @classmethod
    def from_site(
        cls,
        site: RealignmentSite,
        read_indices: Optional[Sequence[int]] = None,
    ) -> "PackedSite":
        """Pack ``site`` (optionally a subset of its reads)."""
        cons_arrays = site.consensus_arrays()
        read_arrays = site.read_arrays()
        if read_indices is None:
            read_indices = range(len(read_arrays))
        read_arrays = [read_arrays[j] for j in read_indices]
        qual_arrays = [site.quals[j] for j in read_indices]

        mlens = np.array([a.size for a in cons_arrays], dtype=np.int64)
        lens = np.array([a.size for a in read_arrays], dtype=np.int64)
        m_max = int(mlens.max())
        n_max = int(lens.max())
        cons = np.zeros((len(cons_arrays), m_max), dtype=np.uint8)
        for i, arr in enumerate(cons_arrays):
            cons[i, : arr.size] = arr
        reads = np.zeros((len(read_arrays), n_max), dtype=np.uint8)
        quals = np.zeros((len(read_arrays), n_max), dtype=np.uint8)
        for j, arr in enumerate(read_arrays):
            reads[j, : arr.size] = arr
            quals[j, : arr.size] = qual_arrays[j]

        present = np.zeros(256, dtype=bool)
        present[cons.ravel()] = True
        present[reads.ravel()] = True
        present[0] = False  # padding is not a symbol
        # Per-read quality extremes over the *true* length only: padding
        # (quality 0) must not pollute the minimum, so mask it to the
        # maximum representable score first.
        in_read = np.arange(n_max)[None, :] < lens[:, None]
        minq = np.where(in_read, quals, np.uint8(255)).min(axis=1)
        return cls(
            cons=cons,
            reads=reads,
            quals=quals,
            mlens=mlens,
            lens=lens,
            minq=minq.astype(np.int64),
            maxq=quals.max(axis=1).astype(np.int64),
            bases=np.flatnonzero(present).astype(np.uint8),
            K=m_max - int(lens.min()) + 1,
            Lf=fast_fft_length(m_max + n_max),
        )

    def valid_cells(self) -> int:
        """In-range offset count the scalar kernel would evaluate."""
        return int((np.add.outer(self.mlens, -self.lens) + 1).sum())

    def read_chunks(self, itemsize: int) -> List[Tuple[int, int]]:
        """Read-axis slices keeping ``(C, chunk, Lf)`` under budget."""
        per_read = self.C * max(self.Lf, self.K) * max(itemsize // 4, 1)
        chunk = max(1, _CHUNK_ELEMENT_BUDGET // max(per_read, 1))
        return [(r0, min(r0 + chunk, self.R)) for r0 in range(0, self.R, chunk)]

    def _invalid(self, r0: int, r1: int) -> np.ndarray:
        """Invalid-offset mask ``(C, r1-r0, K)``: read overhangs consensus."""
        ks = np.arange(self.K, dtype=np.int32)
        limit = (self.mlens[:, None, None]
                 - self.lens[None, r0:r1, None]).astype(np.int32)
        return ks[None, None, :] > limit


def _onehot(block: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """One-hot channels ``(rows, B, cols)`` as float32; pad stays zero."""
    return (block[:, None, :] == bases[None, :, None]).astype(np.float32)


def _correlate(cons_fft: np.ndarray, read_channels: np.ndarray,
               packed: PackedSite) -> np.ndarray:
    """Cross-correlate every consensus with every read channel block.

    ``read_channels`` is ``(Rc, B, n_max)`` with the *padded* read axis
    already reversed; with the whole padded row reversed, the
    correlation value for offset ``k`` lands at column
    ``n_max - 1 + k`` for every read regardless of its true length
    (the padding contributes zero). Returns the ``(C, Rc, K)`` slice.
    """
    rf = np.fft.rfft(read_channels, n=packed.Lf, axis=2)
    # Contract the base channels per frequency as one batched matmul
    # (BLAS) rather than einsum: (F, C, B) @ (F, B, R) -> (F, C, R).
    prod = np.matmul(
        cons_fft.transpose(2, 0, 1), rf.transpose(2, 1, 0)
    ).transpose(1, 2, 0)
    conv = np.fft.irfft(prod, n=packed.Lf, axis=2)
    return conv[:, :, packed.n_max - 1 : packed.n_max - 1 + packed.K]


def _weighted_grids(packed: PackedSite) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``(min_whd, min_idx)`` via the float64 weighted pass."""
    cons_oh = _onehot(packed.cons, packed.bases).astype(np.float64)
    cons_fft = np.fft.rfft(cons_oh, n=packed.Lf, axis=2)
    total_q = packed.quals.sum(axis=1, dtype=np.int64)  # (R,)
    mw = np.empty((packed.C, packed.R), dtype=np.int64)
    mi = np.empty((packed.C, packed.R), dtype=np.int64)
    for r0, r1 in packed.read_chunks(itemsize=8):
        rev_reads = packed.reads[r0:r1, ::-1]
        rev_quals = packed.quals[r0:r1, ::-1]
        weighted = (
            (rev_reads[:, None, :] == packed.bases[None, :, None])
            * rev_quals[:, None, :].astype(np.float64)
        )
        corr = _correlate(cons_fft, weighted, packed)
        whd = np.rint(total_q[None, r0:r1, None] - corr).astype(np.int64)
        whd[packed._invalid(r0, r1)] = WHD_SENTINEL
        idx = whd.argmin(axis=2)  # np.argmin: earliest minimum, like scalar
        mw[:, r0:r1] = np.take_along_axis(whd, idx[:, :, None], axis=2)[:, :, 0]
        mi[:, r0:r1] = idx
    return mw, mi


def _count_candidates(packed: PackedSite):
    """Float32 count pass: candidate cells plus per-pair WHD bounds.

    Returns ``(c_idx, r_idx, k_idx, lb_pair, ub_pair)`` where the index
    arrays list candidate cells in pair-contiguous order (each pair's
    cells are consecutive) and the bounds are ``(C, R)`` int64.
    """
    cons_oh = _onehot(packed.cons, packed.bases)
    cons_fft = np.fft.rfft(cons_oh, n=packed.Lf, axis=2)
    lb_pair = np.empty((packed.C, packed.R), dtype=np.int64)
    ub_pair = np.empty((packed.C, packed.R), dtype=np.int64)
    chunks_c, chunks_r, chunks_k = [], [], []
    for r0, r1 in packed.read_chunks(itemsize=4):
        rev = packed.reads[r0:r1, ::-1]
        corr = _correlate(cons_fft, _onehot(rev, packed.bases), packed)
        cnt = packed.lens[None, r0:r1, None].astype(np.float32) - corr
        cnt[packed._invalid(r0, r1)] = np.float32(COUNT_SENTINEL)
        lb, ub = pair_bounds(cnt, packed.minq[r0:r1], packed.maxq[r0:r1])
        lb_pair[:, r0:r1] = lb
        ub_pair[:, r0:r1] = ub
        cand = offset_candidates(cnt, packed.minq[r0:r1], ub)
        c_idx, r_loc, k_idx = np.nonzero(cand)
        chunks_c.append(c_idx)
        chunks_r.append(r_loc + r0)
        chunks_k.append(k_idx)
    # Pairs never straddle a chunk (chunks split the read axis), so the
    # concatenation keeps every pair's cells consecutive -- exactly what
    # the reduceat in _exact_minima needs.
    return (
        np.concatenate(chunks_c),
        np.concatenate(chunks_r),
        np.concatenate(chunks_k),
        lb_pair,
        ub_pair,
    )


def _exact_minima(
    packed: PackedSite,
    c_idx: np.ndarray,
    r_idx: np.ndarray,
    k_idx: np.ndarray,
    out_w: np.ndarray,
    out_i: np.ndarray,
) -> int:
    """Evaluate candidate cells exactly; reduce to per-pair earliest min.

    The per-cell WHD is an integer gather-and-sum (no floats). Each
    pair's cells are reduced with one keyed ``np.minimum.reduceat``:
    encoding ``key = whd * K + k`` makes the minimum key the minimum WHD
    at its *earliest* offset, matching the scalar kernel's strict-``<``
    update rule. Returns the number of cells evaluated.
    """
    if c_idx.size == 0:
        return 0
    K = packed.K
    n_max = packed.n_max
    pair = c_idx * out_w.shape[1] + r_idx
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    bounds = np.append(starts, pair.size)
    col = np.arange(n_max, dtype=np.int64)
    slab_rows = max(1, _CHUNK_ELEMENT_BUDGET // n_max)
    s = 0
    while s < starts.size:
        e = s + 1
        while e < starts.size and bounds[e + 1] - bounds[s] <= slab_rows:
            e += 1
        lo, hi = int(bounds[s]), int(bounds[e])
        offs = k_idx[lo:hi, None] + col[None, :]
        np.minimum(offs, packed.cons.shape[1] - 1, out=offs)
        win = packed.cons[c_idx[lo:hi, None], offs]
        vals = (
            (win != packed.reads[r_idx[lo:hi]])
            * packed.quals[r_idx[lo:hi]]
        ).sum(axis=1, dtype=np.int64)
        key = vals * K + k_idx[lo:hi]
        best = np.minimum.reduceat(key, starts[s:e] - lo)
        slots = pair[starts[s:e]]
        out_w.flat[slots] = best // K
        out_i.flat[slots] = best % K
        s = e
    return int(c_idx.size)


def min_whd_grid_batched(
    site: RealignmentSite,
    scoring: str = "similarity",
    telemetry=None,
    prefilter: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched Algorithm 1 (kernel ``fft``): the whole ``(C, R)`` grid
    in one evaluation.

    With ``prefilter=False`` the returned grids are cell-for-cell
    identical to the scalar kernel's. With ``prefilter=True`` (default),
    rows of alternates that provably cannot win consensus selection are
    left at :data:`~repro.realign.whd.WHD_SENTINEL`; all other cells are
    exact, so selection and realignment decisions are unchanged.
    ``scoring`` only affects which rows elimination may skip, not any
    computed value.

    ``telemetry`` gets the engine's work accounting: ``kernel.cells_*``
    (the in-range cells evaluated exactly, and the rest) as the
    accelerator model emits them, and ``engine.rows_eliminated`` /
    ``engine.pairs_pruned``.

    The Figure 4 worked example (m=7, n=4, k=0..3), identically to the
    scalar kernel:

    >>> from repro.experiments.figure4 import build_site
    >>> mw, mi = min_whd_grid_batched(build_site(), prefilter=False)
    >>> mw.tolist()
    [[30, 20], [0, 20], [55, 30]]
    """
    packed = PackedSite.from_site(site)
    valid = packed.valid_cells()
    if not prefilter:
        mw, mi = _weighted_grids(packed)
        evaluated, eliminated, pruned = valid, 0, 0
    else:
        mw, mi, evaluated, eliminated, pruned = _prefiltered_grids(
            packed, scoring)
    if telemetry is not None:
        telemetry.count("kernel.cells_evaluated", evaluated)
        telemetry.count("kernel.cells_pruned", valid - evaluated)
        telemetry.count("engine.rows_eliminated", eliminated)
        telemetry.count("engine.pairs_pruned", pruned)
    return mw, mi


def _prefiltered_grids(packed: PackedSite, scoring: str):
    """The count pass, then exact minima of the surviving cells:
    ``(min_whd, min_idx, cells evaluated, rows eliminated, pairs
    pruned)``."""
    c_idx, r_idx, k_idx, lb_pair, ub_pair = _count_candidates(packed)
    mw = np.full((packed.C, packed.R), WHD_SENTINEL, dtype=np.int64)
    mi = np.zeros((packed.C, packed.R), dtype=np.int64)

    if scoring == "absdiff":
        # absdiff elimination bounds compare against the reference row,
        # so evaluate it exactly first, then the surviving alternates.
        ref_sel = c_idx == 0
        evaluated = _exact_minima(
            packed, c_idx[ref_sel], r_idx[ref_sel], k_idx[ref_sel], mw, mi
        )
        ref_row = mw[0].copy()
        keep = consensus_keep_mask(lb_pair, ub_pair, scoring,
                                   ref_exact=ref_row)
        alt_sel = keep[c_idx] & ~ref_sel
        evaluated += _exact_minima(
            packed, c_idx[alt_sel], r_idx[alt_sel], k_idx[alt_sel], mw, mi
        )
    else:
        # Similarity elimination needs only the count bounds: one gather
        # covers the reference and every surviving alternate.
        keep = consensus_keep_mask(lb_pair, ub_pair, scoring)
        sel = keep[c_idx]
        evaluated = _exact_minima(
            packed, c_idx[sel], r_idx[sel], k_idx[sel], mw, mi
        )
        ref_row = mw[0]
    eliminated = packed.C - int(keep.sum())
    pruned = int(pairs_cannot_beat_reference(lb_pair, ref_row)[keep].sum())
    return mw, mi, evaluated, eliminated, pruned
