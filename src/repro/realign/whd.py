"""The INDEL realignment kernel: paper Algorithms 1 and 2.

Algorithm 1 (*Minimum Weighted Hamming Distances*) slides every read along
every consensus and, per offset ``k``, sums the read's quality scores at
mismatching bases; the minimum over ``k`` (and the offset where it first
occurred) is recorded in a ``(consensus, read)`` grid.

Algorithm 2 (*Consensus Selection and Read Realignment*) scores each
alternate consensus as ``score[i] = sum_j |min_whd[i,j] - min_whd[0,j]|``,
picks the lowest-scoring consensus (ties break toward the lowest index),
and realigns exactly the reads for which the picked consensus has a
*strictly* smaller min-WHD than the reference, to
``new_pos = min_whd_idx[best, j] + target_start``.

Algorithm 1 has five exact kernels, each one grid function
``(site, scoring, telemetry) -> (min_whd, min_idx)`` that
:mod:`repro.engine.autotune` keeps in one table. Two are here, the
reference forms every other kernel is property-tested against:

- :func:`min_whd_grid_scalar` (kernel ``scalar``) transcribes the
  paper's pseudo-code line for line (these loops are also what the
  cycle-stepped hardware model executes);
- :func:`min_whd_grid` (kernel ``vector``) computes identical values
  with numpy sliding windows.

Whatever kernel filled the grids, :func:`select_and_realign` finishes
the site: it runs Algorithm 2 and counts the semantic ``kernel.*``
telemetry, once for every kernel.

Offset-range note: the pseudo-code's loop bound (``k = 0..m-n-1``) is an
off-by-one against both the text ("m - n + 1 possible alignments") and
the Figure 4 worked example (k = 0..3 for m = 7, n = 4); we use
``m - n + 1`` offsets. See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.realign.site import RealignmentSite

#: "No minimum recorded yet" sentinel; larger than any reachable WHD
#: (max read length 256 x max Phred 93 = 23808).
WHD_SENTINEL = np.int64(2**31 - 1)


def calc_whd(cons: str, read: str, quals: Sequence[int], k: int) -> int:
    """Algorithm 1, function ``Calc_WHD``: WHD of ``read`` at offset ``k``.

    Compares read bases against consensus bases starting at index ``k``
    and sums the corresponding quality scores where the bases differ.

    Figure 4's worked example slides read 0 (``TGAA``, qualities
    10/20/45/10) along the ``m = 7`` reference consensus, giving
    ``m - n + 1 = 4`` offsets. At ``k = 0`` every base mismatches
    (10+20+45+10); at ``k = 2`` only read bases 1 and 3 do (20+10):

    >>> calc_whd("CCTTAGA", "TGAA", [10, 20, 45, 10], 0)
    85
    >>> calc_whd("CCTTAGA", "TGAA", [10, 20, 45, 10], 2)
    30
    """
    if k < 0 or k + len(read) > len(cons):
        raise ValueError(
            f"offset {k} places the read outside the consensus "
            f"(m={len(cons)}, n={len(read)})"
        )
    whd = 0
    for n, base in enumerate(read):
        if cons[k + n] != base:
            whd += int(quals[n])
    return whd


def min_whd_pair(cons: str, read: str, quals: Sequence[int]) -> Tuple[int, int]:
    """Scalar Algorithm 1 inner loops: ``(min_whd, min_whd_idx)`` for a pair.

    The strict ``<`` update means the *earliest* offset achieving the
    minimum wins -- the same convention the hardware implements.

    Figure 4, read 0 against the reference consensus: the per-offset
    WHDs are 85/75/30/65 (``k = 0..3``), so the minimum is 30 at
    offset 2:

    >>> min_whd_pair("CCTTAGA", "TGAA", [10, 20, 45, 10])
    (30, 2)
    """
    best = int(WHD_SENTINEL)
    best_idx = 0
    for k in range(len(cons) - len(read) + 1):
        whd = calc_whd(cons, read, quals, k)
        if whd < best:
            best = whd
            best_idx = k
    return best, best_idx


def whd_profile(cons_arr: np.ndarray, read_arr: np.ndarray,
                quals_arr: np.ndarray) -> np.ndarray:
    """Vectorized per-offset WHDs: ``profile[k] = Calc_WHD(cons, read, k)``.

    Shape ``(m - n + 1,)``, dtype int64.

    The full Figure 4 profile of read 0 against the reference
    (``m = 7``, ``n = 4``, ``k = 0..3``):

    >>> import numpy as np
    >>> from repro.genomics.sequence import seq_to_array
    >>> whd_profile(seq_to_array("CCTTAGA"), seq_to_array("TGAA"),
    ...             np.array([10, 20, 45, 10], dtype=np.uint8)).tolist()
    [85, 75, 30, 65]
    """
    n = read_arr.size
    m = cons_arr.size
    if n == 0 or m < n:
        raise ValueError(f"invalid pair shapes (m={m}, n={n})")
    windows = np.lib.stride_tricks.sliding_window_view(cons_arr, n)
    mismatch = windows != read_arr
    return mismatch @ quals_arr.astype(np.int64)


def min_whd_grid_scalar(
    site: RealignmentSite, scoring: str = "similarity", telemetry=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1, function ``Min_WHD``, as the pseudo-code's loops
    (kernel ``scalar``): the ``(C, R)`` grids ``(min_whd, min_whd_idx)``,
    int64. ``scoring`` and ``telemetry`` are the kernel contract's; a
    reference form uses neither.

    The Figure 4 site (3 consensuses x 2 reads; consensus 0 is the
    reference, consensus 1 carries the deletion both reads support):

    >>> from repro.experiments.figure4 import build_site
    >>> min_whd, min_idx = min_whd_grid_scalar(build_site())
    >>> min_whd.tolist()
    [[30, 20], [0, 20], [55, 30]]
    >>> min_idx.tolist()
    [[2, 0], [3, 1], [2, 0]]
    """
    C, R = site.num_consensuses, site.num_reads
    min_whd = np.empty((C, R), dtype=np.int64)
    min_idx = np.empty((C, R), dtype=np.int64)
    for i, cons in enumerate(site.consensuses):
        for j, read in enumerate(site.reads):
            min_whd[i, j], min_idx[i, j] = min_whd_pair(
                cons, read, site.quals[j]
            )
    return min_whd, min_idx


def min_whd_grid(
    site: RealignmentSite, scoring: str = "similarity", telemetry=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 with one :func:`whd_profile` per pair (kernel
    ``vector``): cell for cell the grids of :func:`min_whd_grid_scalar`.

    >>> from repro.experiments.figure4 import build_site
    >>> min_whd, min_idx = min_whd_grid(build_site())
    >>> min_whd.tolist()
    [[30, 20], [0, 20], [55, 30]]
    >>> min_idx.tolist()
    [[2, 0], [3, 1], [2, 0]]
    """
    C, R = site.num_consensuses, site.num_reads
    min_whd = np.empty((C, R), dtype=np.int64)
    min_idx = np.empty((C, R), dtype=np.int64)
    read_arrays = site.read_arrays()
    for i, cons_arr in enumerate(site.consensus_arrays()):
        for j, read_arr in enumerate(read_arrays):
            profile = whd_profile(cons_arr, read_arr, site.quals[j])
            min_idx[i, j] = int(np.argmin(profile))  # earliest minimum
            min_whd[i, j] = profile[min_idx[i, j]]
    return min_whd, min_idx


#: Consensus-scoring semantics. The paper's prose and its pseudo-code
#: disagree (see :func:`score_and_select`); both are implemented.
SCORING_METHODS = ("similarity", "absdiff")


def score_and_select(
    min_whd: np.ndarray, method: str = "similarity"
) -> Tuple[int, np.ndarray]:
    """Algorithm 2, function ``Score_n_Select``.

    Two scoring semantics, selected by ``method``:

    - ``"similarity"`` (default): ``scores[i] = sum_j min_whd[i, j]`` --
      the paper's *stated* criterion ("the consensus with the smallest
      Hamming distances against all the reads ... exhibits the most
      similarities with all the reads, and therefore is the best"),
      which is also GATK3 IndelRealigner's behaviour.
    - ``"absdiff"``: ``scores[i] = sum_j |min_whd[i, j] - min_whd[0, j]|``
      -- the paper's *pseudo-code* and Figure 5 selector datapath,
      literally. On sites with several competing consensuses this
      selects the consensus most similar to the reference, i.e. the
      least helpful one -- a pathology the worked Figure 4 example is
      too small to expose (both methods pick consensus 1 there). See
      EXPERIMENTS.md "documented deviations".

    The lowest-scoring alternate consensus wins, ties break toward the
    lowest index. With no alternates the reference (index 0) is
    returned and no read will realign. Both methods cost the selector
    the same cycles (one REF read, one CURR read, one accumulate per
    pair -- Figure 5's datapath).

    On Figure 4's grid both methods pick consensus 1 (the example is
    too small to expose their divergence):

    >>> import numpy as np
    >>> grid = np.array([[30, 20], [0, 20], [55, 30]])
    >>> score_and_select(grid, "absdiff")  # |0-30|+|20-20|, |55-30|+|30-20|
    (1, array([ 0, 30, 35]))
    >>> score_and_select(grid, "similarity")  # plain row sums
    (1, array([50, 20, 85]))
    """
    if method not in SCORING_METHODS:
        raise ValueError(f"unknown scoring method {method!r}")
    C = min_whd.shape[0]
    if method == "absdiff":
        scores = np.zeros(C, dtype=np.int64)
        if C == 1:
            return 0, scores
        scores[1:] = np.abs(min_whd[1:] - min_whd[0]).sum(axis=1)
    else:
        scores = min_whd.sum(axis=1, dtype=np.int64)
        if C == 1:
            return 0, scores
    best_cons = 1 + int(np.argmin(scores[1:]))  # ties -> lowest index
    return best_cons, scores


def reads_realignments(
    min_whd: np.ndarray,
    min_idx: np.ndarray,
    best_cons: int,
    target_start: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 2, function ``Reads_Realignments``.

    A read realigns iff the picked consensus beats the reference strictly
    (``min_whd[best, j] < min_whd[0, j]``); its new position is the
    winning offset translated to reference coordinates. Positions of
    non-realigned reads are reported as -1 (the hardware leaves the
    output-buffer slot unwritten; -1 is the host-side convention).

    Figure 4, with consensus 1 picked and the target at 10,000: read 0
    realigns (0 < 30) to offset 3, read 1 does not (20 == 20, not
    strict):

    >>> import numpy as np
    >>> grid = np.array([[30, 20], [0, 20], [55, 30]])
    >>> idx = np.array([[2, 0], [3, 1], [2, 0]])
    >>> realign, new_pos = reads_realignments(grid, idx, 1, 10_000)
    >>> realign.tolist(), new_pos.tolist()
    ([True, False], [10003, -1])
    """
    realign = min_whd[best_cons] < min_whd[0]
    new_pos = np.where(realign, min_idx[best_cons] + target_start, -1)
    return realign.astype(bool), new_pos.astype(np.int64)


@dataclass(frozen=True)
class SiteResult:
    """Everything Algorithms 1 + 2 produce for one site."""

    best_cons: int
    scores: np.ndarray  # (C,) consensus scores; scores[0] == 0
    min_whd: np.ndarray  # (C, R)
    min_whd_idx: np.ndarray  # (C, R)
    realign: np.ndarray  # (R,) bool
    new_pos: np.ndarray  # (R,) int64; -1 where not realigned

    @property
    def num_realigned(self) -> int:
        return int(self.realign.sum())

    def same_outputs(self, other: "SiteResult") -> bool:
        """Functional equality on the architecturally visible outputs.

        The hardware writes only the realign flags and new positions back
        to memory, so those (plus the picked consensus) define
        equivalence between implementations.
        """
        return (
            self.best_cons == other.best_cons
            and bool(np.array_equal(self.realign, other.realign))
            and bool(np.array_equal(self.new_pos, other.new_pos))
        )


def select_and_realign(
    site: RealignmentSite,
    min_whd: np.ndarray,
    min_idx: np.ndarray,
    scoring: str = "similarity",
    telemetry=None,
) -> SiteResult:
    """Algorithm 2 on a kernel's grids: the :class:`SiteResult` that
    every kernel's site ends in.

    ``telemetry`` optionally records the ``kernel.*`` counters. They are
    defined on the algorithm's *semantics*, not on the kernel that
    filled the grids -- sites, grid cells, offsets evaluated (every
    pair's ``m - n + 1``: ``R * sum(m) - C * sum(n) + C * R``), reads
    realigned, the consensus picked -- so every kernel reports the same
    numbers for a site (a property test pins this). ``kernel.whd_mass``
    sums the computed cells, those below :data:`WHD_SENTINEL`; it is
    the one that differs, because the ``fft`` kernel leaves the rows its
    prefilter eliminates at the sentinel.

    End to end on the Figure 4 site (paper scoring):

    >>> from repro.experiments.figure4 import build_site
    >>> site = build_site()
    >>> result = select_and_realign(site, *min_whd_grid(site),
    ...                             scoring="absdiff")
    >>> int(result.best_cons), result.scores.tolist()
    (1, [0, 30, 35])
    >>> result.realign.tolist(), result.new_pos.tolist()
    ([True, False], [10003, -1])
    """
    best_cons, scores = score_and_select(min_whd, method=scoring)
    realign, new_pos = reads_realignments(min_whd, min_idx, best_cons,
                                          site.start)
    if telemetry is not None:
        telemetry.count("kernel.sites", 1)
        telemetry.count("kernel.grid_cells", min_whd.size)
        telemetry.count("kernel.offsets_evaluated", site.total_offsets())
        telemetry.count("kernel.whd_mass", int(
            min_whd.sum(where=min_whd < WHD_SENTINEL)))
        telemetry.count("kernel.reads_realigned", int(realign.sum()))
        telemetry.count("kernel.consensus_selected", best_cons)
    return SiteResult(
        best_cons=best_cons,
        scores=scores,
        min_whd=min_whd,
        min_whd_idx=min_idx,
        realign=realign,
        new_pos=new_pos,
    )
