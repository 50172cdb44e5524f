"""Base quality score recalibration (refinement pipeline stage 4).

Sequencers' reported quality scores are systematically biased; BQSR
re-estimates the empirical error rate per covariate bucket and rewrites
each base's score accordingly. We implement the GATK-style two-pass
structure with the covariates that matter for the realignment study:
reported quality score and machine cycle (position in read).

Sites that mismatch the reference are counted as errors unless they look
like real variation (every-read-disagrees columns are skipped), mirroring
GATK's known-sites masking with the information available here. Both
passes are numpy-vectorized per read segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.align.pileup import pileup
from repro.genomics.cigar import CigarOp
from repro.genomics.quality import MAX_PHRED, clamp_phred
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sequence import seq_to_array

#: Position-in-read covariate bucket width.
CYCLE_BUCKET = 32

#: Maximum cycle buckets tabulated (reads here are <= 256 bases).
MAX_CYCLE_BUCKETS = 16

#: Laplace-style prior observations per bucket, so rare buckets shrink
#: toward the reported score instead of whipsawing.
PRIOR_OBSERVATIONS = 16.0


@dataclass
class BqsrModel:
    """Empirical error-rate table keyed by (reported Q, cycle bucket)."""

    observations: np.ndarray = field(
        default_factory=lambda: np.zeros(
            (MAX_PHRED + 1, MAX_CYCLE_BUCKETS), dtype=np.int64
        )
    )
    errors: np.ndarray = field(
        default_factory=lambda: np.zeros(
            (MAX_PHRED + 1, MAX_CYCLE_BUCKETS), dtype=np.int64
        )
    )

    def observe(self, reported_q: int, cycle: int, is_error: bool) -> None:
        """Tabulate one base observation (scalar path, used by tests)."""
        bucket = min(cycle // CYCLE_BUCKET, MAX_CYCLE_BUCKETS - 1)
        self.observations[reported_q, bucket] += 1
        if is_error:
            self.errors[reported_q, bucket] += 1

    def observe_batch(self, reported_q: np.ndarray, cycles: np.ndarray,
                      is_error: np.ndarray) -> None:
        """Tabulate a vector of base observations."""
        buckets = np.minimum(cycles // CYCLE_BUCKET, MAX_CYCLE_BUCKETS - 1)
        np.add.at(self.observations, (reported_q, buckets), 1)
        np.add.at(self.errors, (reported_q, buckets),
                  is_error.astype(np.int64))

    def quality_table(self) -> np.ndarray:
        """Recalibrated quality per (reported Q, cycle bucket)."""
        reported = np.arange(MAX_PHRED + 1, dtype=np.float64)[:, None]
        prior_errors = PRIOR_OBSERVATIONS * 10.0 ** (-reported / 10.0)
        rate = (self.errors + prior_errors) / (
            self.observations + PRIOR_OBSERVATIONS
        )
        rate = np.clip(rate, 1e-9, 1.0 - 1e-9)
        return clamp_phred(np.round(-10.0 * np.log10(rate)), MAX_PHRED)

    def recalibrated_quality(self, reported_q: int, cycle: int) -> int:
        bucket = min(cycle // CYCLE_BUCKET, MAX_CYCLE_BUCKETS - 1)
        return int(self.quality_table()[reported_q, bucket])

    def bucket_count(self) -> int:
        """Number of (Q, cycle) buckets with at least one observation."""
        return int((self.observations > 0).sum())


def _variant_like_positions(
    reads: Sequence[Read], reference: ReferenceGenome
) -> Set[Tuple[str, int]]:
    """Columns where every read disagrees with the reference: likely
    real variants, masked from error counting."""
    columns = pileup(reads)
    return {
        key
        for key, col in columns.items()
        if col.depth >= 2
        # Realignment can leave a read's tail hanging past the contig
        # end; columns without a reference base cannot be compared.
        and 0 <= key[1] < reference.length(key[0])
        and all(b != reference.fetch(key[0], key[1], key[1] + 1)
                for b in col.bases)
    }


def fit_model(reads: Sequence[Read], reference: ReferenceGenome) -> BqsrModel:
    """First pass: tabulate empirical mismatch rates per covariate."""
    model = BqsrModel()
    masked = _variant_like_positions(reads, reference)
    for read in reads:
        if not read.is_mapped or read.is_duplicate:
            continue
        read_arr = seq_to_array(read.seq)
        read_offset = 0
        ref_pos = read.pos
        contig_length = reference.length(read.chrom)
        for op, length in read.cigar:
            if op is CigarOp.MATCH:
                # Bases past the contig end (a realignment can shift a
                # read's tail off it) have no reference to compare to.
                usable = min(length, max(0, contig_length - ref_pos))
                window = seq_to_array(
                    reference.fetch(read.chrom, ref_pos, ref_pos + usable)
                )
                segment = slice(read_offset, read_offset + usable)
                cycles = np.arange(read_offset, read_offset + usable)
                keep = np.array(
                    [(read.chrom, ref_pos + i) not in masked
                     for i in range(usable)]
                )
                if keep.any():
                    model.observe_batch(
                        read.quals[segment][keep].astype(np.int64),
                        cycles[keep],
                        (read_arr[segment] != window)[keep],
                    )
            if op.consumes_read:
                read_offset += length
            if op.consumes_reference:
                ref_pos += length
    return model


def recalibrate(
    reads: Sequence[Read], reference: ReferenceGenome
) -> Tuple[List[Read], BqsrModel]:
    """Two-pass BQSR: fit the table, then rewrite every read's scores."""
    model = fit_model(reads, reference)
    table = model.quality_table()
    updated: List[Read] = []
    for read in reads:
        cycles = np.minimum(
            np.arange(len(read)) // CYCLE_BUCKET, MAX_CYCLE_BUCKETS - 1
        )
        new_quals = table[read.quals.astype(np.int64), cycles]
        updated.append(read.with_quals(new_quals))
    return updated, model
