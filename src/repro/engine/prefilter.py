"""GateKeeper-style pre-alignment filtering for the batched WHD engine.

The paper's accelerator prunes *within* a (consensus, read) offset scan
(Section IV: stop accumulating once the running WHD passes the current
minimum). The batched software engine adds the complementary idea from
pre-alignment filters such as GateKeeper (Alser et al.) and shift-based
SIMD filters: bound the weighted Hamming distance *before* computing it,
using only base-mismatch **counts**, and skip the exact evaluation
wherever the bound proves it cannot matter.

For a read with per-base qualities ``q`` and a consensus window at
offset ``k``, let ``cnt(k)`` be the number of mismatching bases. Then

    minq * cnt(k)  <=  WHD(k)  <=  maxq * cnt(k)

where ``minq``/``maxq`` are the read's minimum/maximum quality. Counts
for *every* offset of *every* pair come out of one batched FFT
cross-correlation (see :mod:`repro.engine.batch`), computed in float32
for speed. The float32 pass is rounded to integers and every bound below
carries a slack of :data:`PREFILTER_TOLERANCE` counts, which makes the
filter sound for any FFT rounding error below one count -- a naive
float32 error bound for these transforms is already ~0.6 counts, and the
property suite pins soundness empirically.

Three sound prunes are derived, all preserving byte-identical output:

- **offset candidates** -- a cell ``k`` whose lower bound exceeds the
  pair's upper bound can never be the pair's minimum (and every cell
  *achieving* the minimum always stays a candidate, so the earliest-
  minimum tie-break survives);
- **consensus elimination** -- an alternate consensus whose score lower
  bound exceeds another alternate's score upper bound can never be
  selected by ``Score_n_Select`` (strict inequality, so index-order tie
  breaks survive); its grid row is left at the sentinel;
- **cannot-beat-reference pairs** -- a pair whose WHD lower bound is at
  least the reference's exact WHD can never trigger realignment
  (Algorithm 2 realigns only on a *strictly* smaller WHD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

#: Slack, in mismatch *counts*, absorbed by every count-derived bound.
#: Covers the float32 FFT rounding error (provably < 1 count at the
#: site-size limits) with margin to spare.
PREFILTER_TOLERANCE = 1

#: Mismatch-count sentinel for invalid offsets (read would overhang the
#: consensus). Far above the largest real count (256 bases) yet small
#: enough that ``maxq * (COUNT_SENTINEL + 1)`` fits comfortably in int64.
COUNT_SENTINEL = 1 << 20


@dataclass
class PrefilterStats:
    """Work accounting for the batched kernel, accumulated across calls.

    ``cells_valid`` counts every in-range (consensus, read, offset) cell
    the scalar kernel would evaluate; ``cells_evaluated`` counts the
    cells the engine actually evaluated exactly. Their difference is the
    work the filter avoided.
    """

    sites: int = 0
    cells_valid: int = 0
    cells_evaluated: int = 0
    rows_eliminated: int = 0
    pairs_pruned: int = 0

    @property
    def cells_pruned(self) -> int:
        return max(self.cells_valid - self.cells_evaluated, 0)

    @property
    def prune_fraction(self) -> float:
        if self.cells_valid == 0:
            return 0.0
        return self.cells_pruned / self.cells_valid

    def merge(self, other: "PrefilterStats") -> None:
        self.sites += other.sites
        self.cells_valid += other.cells_valid
        self.cells_evaluated += other.cells_evaluated
        self.rows_eliminated += other.rows_eliminated
        self.pairs_pruned += other.pairs_pruned

    def as_counters(self) -> Dict[str, int]:
        return {
            "engine.sites": self.sites,
            "engine.cells_valid": self.cells_valid,
            "engine.cells_evaluated": self.cells_evaluated,
            "engine.cells_pruned": self.cells_pruned,
            "engine.rows_eliminated": self.rows_eliminated,
            "engine.pairs_pruned": self.pairs_pruned,
        }


def pair_bounds(
    cnt: np.ndarray,
    minq: np.ndarray,
    maxq: np.ndarray,
    tol: int = PREFILTER_TOLERANCE,
) -> tuple:
    """Bounds on ``min_k WHD`` per (consensus, read) pair from counts.

    ``cnt`` is the ``(C, R, K)`` float32 mismatch-count tensor (raw FFT
    output, error < ``tol`` counts) with :data:`COUNT_SENTINEL` at
    invalid offsets; ``minq``/``maxq`` are the per-read quality
    extremes, shape ``(R,)``. Returns ``(lb, ub)`` int64 arrays of
    shape ``(C, R)`` with ``lb <= min_k WHD <= ub``.

    Soundness: at the true minimizing offset ``k*``,
    ``WHD(k*) >= minq * cnt(k*) >= minq * (cntf(k*) - tol)`` and at the
    float-count minimizer ``kc``,
    ``min_k WHD <= WHD(kc) <= maxq * cnt(kc) <= maxq * (cntf(kc) + tol)``;
    the float-to-int conversions round outward (floor for ``lb``, ceil
    for ``ub``) so the integer bounds stay conservative. Every pair has
    at least one valid offset (a site invariant), so the sentinel never
    reaches the bounds.

    One pair, one read (C=1, R=1) whose best offset has 2 mismatches,
    qualities in [10, 40], default tolerance of 1 count:

    >>> cnt = np.array([[[5.0, 2.0, 3.0]]], dtype=np.float32)
    >>> lb, ub = pair_bounds(cnt, np.array([10]), np.array([40]))
    >>> (int(lb[0, 0]), int(ub[0, 0]))  # 10*(2-1) .. 40*(2+1)
    (10, 120)
    """
    mincnt = cnt.min(axis=2).astype(np.float64)
    minq64 = minq.astype(np.float64)[None, :]
    maxq64 = maxq.astype(np.float64)[None, :]
    lb = np.floor(minq64 * np.maximum(mincnt - tol, 0)).astype(np.int64)
    ub = np.ceil(maxq64 * (mincnt + tol)).astype(np.int64)
    return lb, ub


def offset_candidates(
    cnt: np.ndarray,
    minq: np.ndarray,
    ub_pair: np.ndarray,
    tol: int = PREFILTER_TOLERANCE,
) -> np.ndarray:
    """Mask of offsets that could still hold a pair's minimum WHD.

    A cell is pruned when its WHD lower bound ``minq * (cnt - tol)``
    strictly exceeds the pair's upper bound -- such a cell cannot equal
    the minimum, so dropping it changes neither the minimum nor the
    *earliest* offset achieving it (any cell achieving the minimum
    satisfies ``lb_cell <= WHD = min <= ub_pair`` and is kept). Every
    valid pair retains at least one candidate for the same reason.

    ``cnt`` must carry :data:`COUNT_SENTINEL` at invalid offsets. The
    whole test collapses to one comparison against a per-pair count
    threshold -- for ``minq > 0``, ``cnt <= ub/minq + tol`` -- so the
    only pass over the ``(C, R, K)`` tensor is a single fused
    ``<=``. The threshold is computed in float64 with a +1e-3 count
    margin; residual rounding (including the final float32 cast, < 0.02
    counts at these magnitudes) stays far inside the >= 0.4-count slack
    that ``tol`` leaves over the worst-case FFT error, so no cell that
    could hold the minimum is ever dropped (keeping an extra borderline
    cell is always safe -- it is merely evaluated exactly). Reads with
    ``minq == 0`` bound nothing, so every valid cell stays a candidate;
    the threshold still sits below the sentinel, which keeps invalid
    offsets excluded in every case.
    """
    with np.errstate(divide="ignore"):
        thresh = ub_pair / np.maximum(minq, 1)[None, :].astype(np.float64)
    thresh = np.where(minq[None, :] > 0, thresh + tol + 1e-3,
                      float(COUNT_SENTINEL - 1))
    thresh = np.minimum(thresh, float(COUNT_SENTINEL - 1))
    return cnt <= thresh.astype(np.float32)[:, :, None]


def consensus_keep_mask(
    lb: np.ndarray,
    ub: np.ndarray,
    scoring: str = "similarity",
    ref_exact: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Alternates that could still win ``Score_n_Select``.

    An alternate is eliminated when its score *lower* bound strictly
    exceeds some other alternate's score *upper* bound: its exact score
    would then be strictly larger than that rival's, so it can never be
    the argmin -- not even on ties, which Algorithm 2 breaks toward the
    lowest index among *equal* scores. At least one alternate always
    survives (the one attaining the minimum upper bound), and the
    reference row (index 0) is always kept.

    ``"absdiff"`` scoring needs the exact reference row ``ref_exact``
    (shape ``(R,)``), because its per-pair score term is
    ``|whd - ref|``; the interval ``[lb, ub]`` maps to
    ``[max(0, lb - ref, ref - ub), max(ub - ref, ref - lb)]``.
    """
    C = lb.shape[0]
    keep = np.ones(C, dtype=bool)
    if C <= 1:
        return keep
    if scoring == "absdiff":
        if ref_exact is None:
            raise ValueError("absdiff elimination needs the exact reference row")
        r = ref_exact[None, :]
        lo_term = np.maximum(np.maximum(lb[1:] - r, r - ub[1:]), 0)
        hi_term = np.maximum(ub[1:] - r, r - lb[1:])
    else:
        lo_term = lb[1:]
        hi_term = ub[1:]
    lo = lo_term.sum(axis=1, dtype=np.int64)
    hi = hi_term.sum(axis=1, dtype=np.int64)
    keep[1:] = lo <= hi.min()
    return keep


def pairs_cannot_beat_reference(
    lb: np.ndarray, ref_exact: np.ndarray
) -> np.ndarray:
    """Pairs provably unable to trigger realignment, shape ``(C, R)``.

    Algorithm 2 realigns read ``j`` only when the picked consensus has
    ``min_whd[i, j] < min_whd[0, j]`` *strictly*; if the pair's lower
    bound already reaches the reference's exact WHD the strict
    inequality is impossible. Conversely a pair whose true WHD beats the
    reference has ``lb <= WHD < ref`` and is never flagged -- the
    property suite pins this. Row 0 (reference vs itself) is never
    flagged.
    """
    out = lb >= ref_exact[None, :].astype(np.int64)
    out[0, :] = False
    return out
