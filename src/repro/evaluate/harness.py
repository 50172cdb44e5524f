"""The before/after evaluation harness.

Runs the realigner over a simulated sample with known truth and scores
the *outcome*: mismatch totals against the reference, base-level
concordance against the simulator's truth placements, per-site
before/after deltas (a site's reads by their input indices), and
truth-INDEL recovery through the somatic caller with
left-normalized matching. The harness is deliberately engine-agnostic:
pass any ``engine`` accepted by
:class:`repro.realign.realigner.IndelRealigner` (``None`` for the
inline path, an :class:`~repro.engine.EngineConfig` naming any kernel,
or a live :class:`~repro.engine.Engine` at any worker count) and the report
must come out score-identical -- the cross-kernel/engine
accuracy matrix in ``tests/test_evaluation.py`` enforces exactly that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.genomics.cigar import CigarOp
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.simulate import SimulatedSample, TruthPlacement
from repro.evaluate.report import (
    IndelRecovery,
    SampleEvaluation,
    SiteOutcome,
    TrajectoryOutcome,
)
from repro.realign.realigner import IndelRealigner, apply_moved
from repro.variants.caller import CallerConfig, SomaticCaller
from repro.variants.evaluation import evaluate_calls


def read_mismatches(
    read: Read, reference: ReferenceGenome
) -> Tuple[int, int]:
    """``(mismatched, aligned)`` base counts of one read vs. the reference."""
    if not read.is_mapped:
        return 0, 0
    mismatched = 0
    aligned = 0
    read_offset = 0
    ref_pos = read.pos
    for op, length in read.cigar:
        if op is CigarOp.MATCH:
            window = reference.fetch(read.chrom, ref_pos, ref_pos + length)
            segment = read.seq[read_offset : read_offset + length]
            mismatched += sum(1 for a, b in zip(segment, window) if a != b)
            aligned += length
        if op.consumes_read:
            read_offset += length
        if op.consumes_reference:
            ref_pos += length
    return mismatched, aligned


def mismatch_totals(
    reads: Sequence[Read], reference: ReferenceGenome
) -> Tuple[int, int]:
    """Summed ``(mismatched, aligned)`` base counts over a read set."""
    mismatched = 0
    aligned = 0
    for read in reads:
        m, a = read_mismatches(read, reference)
        mismatched += m
        aligned += a
    return mismatched, aligned


def truth_concordance(
    reads: Sequence[Read],
    placements: Dict[str, TruthPlacement],
) -> Tuple[int, int]:
    """``(concordant, truth_aligned)`` base counts vs. truth placements.

    A read base is concordant when the reference coordinate its current
    alignment assigns it equals the coordinate its truth placement
    assigns it. Reads without a recorded truth placement are skipped
    (they contribute to neither count).
    """
    concordant = 0
    total = 0
    for read in reads:
        placement = placements.get(read.name)
        if placement is None or not read.is_mapped:
            continue
        truth_map = dict(placement.aligned_pairs())
        total += len(truth_map)
        for read_offset, ref_offset in read.cigar.aligned_pairs():
            if truth_map.get(read_offset) == read.pos + ref_offset:
                concordant += 1
    return concordant, total


def _indel_recovery(
    reads: Sequence[Read],
    sample: SimulatedSample,
    caller_config: Optional[CallerConfig],
) -> IndelRecovery:
    """Truth-INDEL precision/recall via the caller, left-normalized."""
    caller = SomaticCaller(sample.reference, caller_config)
    calls = [c for c in caller.call(reads) if c.kind.value != "SNP"]
    truth = [v for v in sample.truth_variants if v.is_indel]
    return IndelRecovery.from_result(
        evaluate_calls(calls, truth, reference=sample.reference)
    )


def evaluate_sample(
    name: str,
    sample: SimulatedSample,
    engine=None,
    caller_config: Optional[CallerConfig] = None,
) -> Tuple[SampleEvaluation, List[Read]]:
    """Score one sample's realignment outcomes.

    Returns ``(evaluation, realigned_reads)`` -- the reads are returned
    so cohort-level metrics (allele-frequency trajectories) can be
    computed without re-running the realigner.
    """
    reference = sample.reference
    before = list(sample.reads)
    windows, moved, report = IndelRealigner(
        reference, engine=engine).decide(before)
    after = apply_moved(before, moved)

    mismatch_before, aligned_before = mismatch_totals(before, reference)
    mismatch_after, aligned_after = mismatch_totals(after, reference)
    concordant_before, truth_bases = truth_concordance(
        before, sample.truth_placements
    )
    concordant_after, _ = truth_concordance(after, sample.truth_placements)

    moved_indices = {index for index, _pos, _cigar in moved}
    site_outcomes: List[SiteOutcome] = []
    for window in windows:
        site_mismatch_before, _ = mismatch_totals(window.reads, reference)
        site_mismatch_after, _ = mismatch_totals(
            [after[i] for i in window.indices], reference)
        site_outcomes.append(SiteOutcome(
            chrom=window.site.chrom,
            start=window.site.start,
            reads=len(window.indices),
            moved=sum(i in moved_indices for i in window.indices),
            mismatch_before=site_mismatch_before,
            mismatch_after=site_mismatch_after,
        ))

    evaluation = SampleEvaluation(
        sample=name,
        reads=len(before),
        truth_variants=len(sample.truth_variants),
        truth_indels=sum(1 for v in sample.truth_variants if v.is_indel),
        targets=report.targets_identified,
        sites=report.sites_built,
        reads_realigned=report.reads_realigned,
        reads_moved=report.reads_moved,
        aligned_bases_before=aligned_before,
        aligned_bases_after=aligned_after,
        mismatch_before=mismatch_before,
        mismatch_after=mismatch_after,
        concordant_bases_before=concordant_before,
        concordant_bases_after=concordant_after,
        truth_aligned_bases=truth_bases,
        indel_before=_indel_recovery(before, sample, caller_config),
        indel_after=_indel_recovery(after, sample, caller_config),
        site_outcomes=site_outcomes,
    )
    return evaluation, after


def cohort_trajectories(
    cohort,
    before_by_sample: Dict[str, List[Read]],
    after_by_sample: Dict[str, List[Read]],
) -> List[TrajectoryOutcome]:
    """Measured vs. truth allele-frequency trajectories for a cohort.

    ``before_by_sample`` / ``after_by_sample`` map cohort sample names
    (timepoint order) to their read sets; frequencies are measured from
    gapped reads via :func:`repro.workloads.cohort.measured_frequency`.
    """
    from repro.workloads.cohort import measured_frequency

    outcomes: List[TrajectoryOutcome] = []
    ordered = sorted(cohort.samples, key=lambda s: s.timepoint)
    for variant in cohort.shared_variants:
        if not variant.is_indel:
            continue
        key = (variant.chrom, variant.pos, variant.ref, variant.alt)
        truth = cohort.trajectories[key]
        before = tuple(
            round(measured_frequency(before_by_sample[s.name], variant), 6)
            for s in ordered
        )
        after = tuple(
            round(measured_frequency(after_by_sample[s.name], variant), 6)
            for s in ordered
        )
        outcomes.append(TrajectoryOutcome(
            chrom=variant.chrom,
            pos=variant.pos,
            kind=variant.kind.value,
            length_change=variant.length_change,
            truth=truth,
            before=before,
            after=after,
        ))
    return outcomes
