"""Smith-Waterman local alignment with affine gaps (Gotoh's algorithm).

The compute kernel of BWA-MEM seed extension and the traditional target
of genomics hardware accelerators ("the compute-intensive Smith-Waterman
seed extension dynamic programming algorithm ... [has] been accelerated
via FPGA and ASIC implementations"). Affine gap scoring
(``gap_open + k * gap_extend`` for a k-base gap) matches BWA-MEM and --
unlike linear gaps -- keeps a contiguous INDEL as one run in the
traceback, so the seed-and-extend aligner reports one INDEL as one
CIGAR run.

The three Gotoh matrices are filled row by row; the match and
insertion recurrences vectorize over the previous row while the deletion
recurrence is an in-row scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.genomics.cigar import Cigar, CigarOp
from repro.genomics.sequence import seq_to_array


@dataclass(frozen=True)
class ScoringScheme:
    """Affine-gap Smith-Waterman scores (BWA-MEM-like defaults).

    A gap of length k costs ``gap_open + k * gap_extend`` (both terms
    negative).
    """

    match: int = 2
    mismatch: int = -3
    gap_open: int = -5
    gap_extend: int = -1

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch >= 0:
            raise ValueError("mismatch penalty must be negative")
        if self.gap_open >= 0 or self.gap_extend >= 0:
            raise ValueError("gap penalties must be negative")

    def gap_cost(self, length: int) -> int:
        """The (negative) score contribution of a length-``length`` gap."""
        if length <= 0:
            raise ValueError("gap length must be positive")
        return self.gap_open + length * self.gap_extend


@dataclass(frozen=True)
class AlignmentResult:
    """A local alignment of ``query`` against ``target``.

    ``target_start`` is where the aligned region begins on the target;
    ``query_start`` likewise on the query. ``cigar`` covers only the
    aligned (local) region -- callers add soft clips for the flanks.
    """

    score: int
    target_start: int
    target_end: int
    query_start: int
    query_end: int
    cigar: Cigar

    @property
    def query_span(self) -> int:
        return self.query_end - self.query_start


_NEG = np.int32(-(1 << 28))

# Predecessor-state codes for the M matrix.
_FROM_START, _FROM_M, _FROM_INS, _FROM_DEL = 0, 1, 2, 3


def _fill(query: np.ndarray, target: np.ndarray, scheme: ScoringScheme):
    """Fill the Gotoh M / Ins / Del matrices with tracebacks.

    ``Ins`` states consume query only (insertions to the reference);
    ``Del`` states consume target only (deletions from the reference).
    """
    rows, cols = query.size + 1, target.size + 1
    m = np.zeros((rows, cols), dtype=np.int32)
    ins = np.full((rows, cols), _NEG, dtype=np.int32)
    dele = np.full((rows, cols), _NEG, dtype=np.int32)
    trace_m = np.zeros((rows, cols), dtype=np.uint8)
    trace_ins = np.zeros((rows, cols), dtype=np.uint8)  # 0 open, 1 extend
    trace_del = np.zeros((rows, cols), dtype=np.uint8)
    open_, extend = scheme.gap_open, scheme.gap_extend
    for i in range(1, rows):
        subst = np.where(target == query[i - 1], scheme.match,
                         scheme.mismatch).astype(np.int32)
        # M: diagonal step from the best of the three previous states.
        prev_m = m[i - 1, :-1]
        prev_ins = ins[i - 1, :-1]
        prev_del = dele[i - 1, :-1]
        best_prev = np.maximum(np.maximum(prev_m, prev_ins), prev_del)
        from_state = np.where(
            prev_m >= np.maximum(prev_ins, prev_del), _FROM_M,
            np.where(prev_ins >= prev_del, _FROM_INS, _FROM_DEL),
        ).astype(np.uint8)
        candidate = best_prev + subst
        fresh = subst  # start a new local alignment at this cell
        m_row = np.maximum(np.maximum(candidate, fresh), 0)
        trace_m[i, 1:] = np.where(
            m_row == 0, _FROM_START,
            np.where(candidate >= fresh, from_state, _FROM_START),
        )
        # A cell scoring 0 is a dead local start; fresh-start cells with
        # positive substitution score also begin at START.
        m[i, 1:] = m_row

        # Ins: vertical step (consumes query) from the previous row.
        open_path = m[i - 1, :] + open_ + extend
        extend_path = ins[i - 1, :] + extend
        ins[i, :] = np.maximum(open_path, extend_path)
        trace_ins[i, :] = (extend_path > open_path).astype(np.uint8)

        # Del: horizontal step (consumes target); in-row scan.
        m_i = m[i]
        del_i = dele[i]
        trace_del_i = trace_del[i]
        running = _NEG
        for j in range(1, cols):
            open_candidate = m_i[j - 1] + open_ + extend
            extend_candidate = running + extend
            if extend_candidate > open_candidate:
                running = extend_candidate
                trace_del_i[j] = 1
            else:
                running = open_candidate
                trace_del_i[j] = 0
            del_i[j] = running
    return m, ins, dele, trace_m, trace_ins, trace_del


def smith_waterman(
    query: str,
    target: str,
    scheme: ScoringScheme = ScoringScheme(),
) -> AlignmentResult:
    """Locally align ``query`` against ``target`` with affine gaps.

    Returns the best-scoring local alignment; ties break toward the
    smallest (query, target) end coordinates (first maximum in
    row-major order), keeping results deterministic.
    """
    if not query or not target:
        raise ValueError("query and target must be non-empty")
    q = seq_to_array(query)
    t = seq_to_array(target)
    m, ins, dele, trace_m, trace_ins, trace_del = _fill(q, t, scheme)
    flat_best = int(np.argmax(m))
    i, j = divmod(flat_best, m.shape[1])
    best_score = int(m[i, j])
    if best_score <= 0:
        return AlignmentResult(0, 0, 0, 0, 0, Cigar.from_elements([]))

    elements: List[Tuple[CigarOp, int]] = []
    end_i, end_j = i, j
    state = "M"
    while i > 0 and j > 0:
        if state == "M":
            came_from = trace_m[i, j]
            elements.append((CigarOp.MATCH, 1))
            i -= 1
            j -= 1
            if came_from == _FROM_START:
                break
            state = {_FROM_M: "M", _FROM_INS: "I", _FROM_DEL: "D"}[came_from]
        elif state == "I":
            extendp = trace_ins[i, j]
            elements.append((CigarOp.INSERTION, 1))
            i -= 1
            state = "I" if extendp else "M"
        else:  # state == "D"
            extendp = trace_del[i, j]
            elements.append((CigarOp.DELETION, 1))
            j -= 1
            state = "D" if extendp else "M"
    elements.reverse()
    return AlignmentResult(
        score=best_score,
        target_start=j,
        target_end=end_j,
        query_start=i,
        query_end=end_i,
        cigar=Cigar.from_elements(elements),
    )


def alignment_to_read_cigar(result: AlignmentResult, query_length: int) -> Cigar:
    """Expand a local-alignment CIGAR to cover the whole query with soft clips."""
    elements: List[Tuple[CigarOp, int]] = []
    if result.query_start > 0:
        elements.append((CigarOp.SOFT_CLIP, result.query_start))
    elements.extend(result.cigar.elements)
    tail = query_length - result.query_end
    if tail > 0:
        elements.append((CigarOp.SOFT_CLIP, tail))
    return Cigar.from_elements(elements)
