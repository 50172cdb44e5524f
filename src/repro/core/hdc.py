"""The Hamming Distance Calculator stage (Figure 5 left, Figure 8).

The HDC computes, for one (consensus, read) pair, the minimum weighted
Hamming distance over all sliding offsets, plus the offset where it
occurred. Two microarchitectural variants:

- **scalar** (``lanes=1``): "a simple comparator to process one base
  pair per cycle and perform a quality score accumulate when the base
  pair mismatches" -- the original IRAcc-TaskP datapath;
- **data-parallel** (``lanes=32``): "32 base byte-compares and 32
  quality score byte-accumulates per cycle" reading one 32-byte block
  per cycle (Figure 8) -- the optimized IR ACC datapath.

Both implement **computation pruning**: a register holds the running
minimum accumulated WHD for the pair, and the in-flight offset aborts as
soon as its partial sum *exceeds* that minimum ("stop computing the rest
of the distances when it exceeds the current minimum"). Pruning is
result-invariant (a pruned offset can never become the minimum) and is
property-tested as such.

Each variant exists in two bit-identical forms:

- :meth:`HammingDistanceCalculator.compute_pair_stepped` -- a literal
  cycle loop (used by unit tests and the stepped IR unit);
- :meth:`HammingDistanceCalculator.compute_pair` -- a numpy closed form
  over the cumulative WHD matrix (used at workload scale).

The equivalence of the two forms -- outputs *and* cycle counts -- is the
load-bearing invariant of the whole performance evaluation, and is
pinned by hypothesis tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.realign.whd import WHD_SENTINEL

#: Pipeline overhead per sliding offset: reload the read pointer and
#: reset the accumulator before the next ``k`` begins.
OFFSET_OVERHEAD_CYCLES = 1

#: Overhead per (consensus, read) pair: emit the minimum to the selector
#: and rewind the consensus pointer ("avoid having to shift large,
#: random amounts ... starting the next read with the consensus back at
#: the first offset").
PAIR_OVERHEAD_CYCLES = 2


@dataclass(frozen=True)
class PairComputation:
    """HDC result and cost for one (consensus, read) pair."""

    min_whd: int
    min_whd_idx: int
    cycles: int
    comparisons: int  # base comparisons actually performed
    unpruned_comparisons: int  # comparisons without pruning

    @property
    def pruned_fraction(self) -> float:
        """Fraction of Algorithm 1's comparisons pruning eliminated."""
        if self.unpruned_comparisons == 0:
            return 0.0
        return 1.0 - self.comparisons / self.unpruned_comparisons


class HammingDistanceCalculator:
    """One HDC datapath configuration."""

    def __init__(self, lanes: int = 1, prune: bool = True):
        if lanes <= 0:
            raise ValueError("lane count must be positive")
        self.lanes = lanes
        self.prune = prune

    # ------------------------------------------------------------------
    # Cycle-stepped form: literal hardware behaviour.
    # ------------------------------------------------------------------
    def compute_pair_stepped(
        self,
        cons: np.ndarray,
        read: np.ndarray,
        quals: np.ndarray,
    ) -> PairComputation:
        """Step the datapath one cycle at a time.

        Per cycle the unit consumes up to ``lanes`` bases, accumulates
        mismatch quality scores, then checks the pruning comparator
        against the running minimum.
        """
        m, n = cons.size, read.size
        if n == 0 or m < n:
            raise ValueError(f"invalid pair shapes (m={m}, n={n})")
        num_offsets = m - n + 1
        min_whd = int(WHD_SENTINEL)
        min_idx = 0
        cycles = 0
        comparisons = 0
        for k in range(num_offsets):
            cycles += OFFSET_OVERHEAD_CYCLES
            whd = 0
            pruned = False
            for chunk_start in range(0, n, self.lanes):
                chunk_end = min(chunk_start + self.lanes, n)
                cycles += 1
                comparisons += chunk_end - chunk_start
                for t in range(chunk_start, chunk_end):
                    if cons[k + t] != read[t]:
                        whd += int(quals[t])
                if self.prune and whd > min_whd:
                    pruned = True
                    break
            if not pruned and whd < min_whd:
                min_whd = whd
                min_idx = k
        cycles += PAIR_OVERHEAD_CYCLES
        return PairComputation(
            min_whd=min_whd,
            min_whd_idx=min_idx,
            cycles=cycles,
            comparisons=comparisons,
            unpruned_comparisons=num_offsets * n,
        )

    # ------------------------------------------------------------------
    # Analytic form: identical numbers, numpy speed.
    # ------------------------------------------------------------------
    def compute_pair(
        self,
        cons: np.ndarray,
        read: np.ndarray,
        quals: np.ndarray,
    ) -> PairComputation:
        """Closed-form equivalent of :meth:`compute_pair_stepped`.

        Derivation: let ``cum[k, t]`` be the running WHD at offset ``k``
        after base ``t`` (the register the pruning comparator checks) and
        ``whd[k] = cum[k, n-1]``. The running minimum the comparator
        sees when offset ``k`` starts is the minimum of all *earlier*
        totals -- pruned offsets never record a smaller total, so the
        plain prefix minimum of ``whd`` is exact. Offset ``k`` then
        stops at the first lane-chunk boundary whose cumulative sum
        exceeds that running minimum.
        """
        m, n = cons.size, read.size
        if n == 0 or m < n:
            raise ValueError(f"invalid pair shapes (m={m}, n={n})")
        num_chunks = -(-n // self.lanes)
        # Only cumulative sums at lane-chunk boundaries matter to the
        # pruning comparator, so reduce per chunk instead of per base
        # (a large constant-factor win for the 32-lane datapath).
        windows = np.lib.stride_tricks.sliding_window_view(cons, n)
        weighted = (windows != read) * quals.astype(np.int32)
        if num_chunks == 1:
            chunk_cum = weighted.sum(axis=1, dtype=np.int32)[:, None]
        else:
            starts = np.arange(0, n, self.lanes)
            chunk_cum = np.cumsum(
                np.add.reduceat(weighted, starts, axis=1, dtype=np.int32),
                axis=1, dtype=np.int32,
            )
        whd = chunk_cum[:, -1]
        num_offsets = whd.size
        min_idx = int(np.argmin(whd))
        min_whd = int(whd[min_idx])

        if self.prune:
            running_min = np.empty(num_offsets, dtype=np.int64)
            running_min[0] = WHD_SENTINEL
            if num_offsets > 1:
                running_min[1:] = np.minimum.accumulate(whd)[:-1]
            exceeded = chunk_cum > running_min[:, None]
            any_exceeded = exceeded.any(axis=1)
            first_chunk = np.where(any_exceeded,
                                   exceeded.argmax(axis=1) + 1, num_chunks)
            chunks_processed = first_chunk.astype(np.int64)
            comparisons = int(
                np.minimum(chunks_processed * self.lanes, n).sum()
            )
        else:
            chunks_processed = np.full(num_offsets, num_chunks, dtype=np.int64)
            comparisons = num_offsets * n
        cycles = (
            int(chunks_processed.sum())
            + num_offsets * OFFSET_OVERHEAD_CYCLES
            + PAIR_OVERHEAD_CYCLES
        )
        return PairComputation(
            min_whd=min_whd,
            min_whd_idx=min_idx,
            cycles=cycles,
            comparisons=comparisons,
            unpruned_comparisons=num_offsets * n,
        )
