"""Structured realignment-outcome reports.

An :class:`EvaluationReport` is the unit the accuracy harness emits: a
deterministic, JSON-serialisable scorecard of what INDEL realignment
*did* to a workload -- not whether bytes matched, but whether outcomes
improved. Every number is derived from integer counts over reads and
truth data, so a report is identical across kernels, engines, worker
counts, and fault schedules (all of which are byte-identical by the
repo's core invariant); the committed goldens in ``tests/golden/`` pin
that.

Metric definitions live in ``docs/EVALUATION.md``; in brief:

- **mismatch totals** -- aligned (CIGAR M) read bases disagreeing with
  the reference, before vs. after realignment. Misaligned INDEL reads
  absorb their INDEL as a run of mismatches, so IR strictly lowers this
  on every INDEL-bearing scenario.
- **truth concordance** -- read bases whose aligned reference
  coordinate equals the coordinate under the read's
  :class:`~repro.genomics.simulate.TruthPlacement` (the alignment a
  perfect aligner would emit), over all truth-aligned bases.
- **reads moved** -- reads whose ``(pos, cigar)`` changed, a strict
  subset of the kernel's realign decisions.
- **truth-INDEL recovery** -- precision/recall/F1 of the somatic
  caller's INDEL calls against the simulator's truth INDELs, matched
  under left-alignment normalization
  (:func:`repro.variants.evaluation.left_normalize`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.variants.evaluation import EvaluationResult


def _ratio(numerator: int, denominator: int) -> float:
    return round(numerator / denominator, 6) if denominator else 0.0


@dataclass(frozen=True)
class IndelRecovery:
    """Truth-INDEL precision/recall/F1 at one pipeline stage."""

    tp: int
    fp: int
    fn: int

    @classmethod
    def from_result(cls, result: EvaluationResult) -> "IndelRecovery":
        return cls(tp=len(result.true_positives),
                   fp=len(result.false_positives),
                   fn=len(result.false_negatives))

    @property
    def precision(self) -> float:
        return _ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return round(2 * p * r / (p + r), 6) if (p + r) else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": self.precision, "recall": self.recall,
            "f1": self.f1,
        }


@dataclass(frozen=True)
class SiteOutcome:
    """Before/after mismatch accounting for one realignment site."""

    chrom: str
    start: int
    reads: int
    moved: int
    mismatch_before: int
    mismatch_after: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "chrom": self.chrom, "start": self.start, "reads": self.reads,
            "moved": self.moved, "mismatch_before": self.mismatch_before,
            "mismatch_after": self.mismatch_after,
        }


@dataclass(frozen=True)
class TrajectoryOutcome:
    """One truth INDEL's allele-frequency trajectory through the cohort.

    ``truth`` is the simulated allele fraction per timepoint;
    ``before``/``after`` are the frequencies measured from gapped reads
    in the pre-/post-realignment pileups. Pre-IR, misaligned INDEL
    reads are gap-free and undercount the allele, so ``after`` should
    track ``truth`` at least as closely as ``before``.
    """

    chrom: str
    pos: int
    kind: str
    length_change: int
    truth: Tuple[float, ...]
    before: Tuple[float, ...]
    after: Tuple[float, ...]

    def _mae(self, measured: Tuple[float, ...]) -> float:
        if not self.truth:
            return 0.0
        total = sum(abs(t - m) for t, m in zip(self.truth, measured))
        return round(total / len(self.truth), 6)

    @property
    def error_before(self) -> float:
        return self._mae(self.before)

    @property
    def error_after(self) -> float:
        return self._mae(self.after)

    def to_dict(self) -> Dict[str, object]:
        return {
            "chrom": self.chrom, "pos": self.pos, "kind": self.kind,
            "length_change": self.length_change,
            "truth": [round(f, 6) for f in self.truth],
            "before": [round(f, 6) for f in self.before],
            "after": [round(f, 6) for f in self.after],
            "error_before": self.error_before,
            "error_after": self.error_after,
        }


@dataclass
class SampleEvaluation:
    """One sample's realignment-outcome scorecard."""

    sample: str
    reads: int
    truth_variants: int
    truth_indels: int
    targets: int
    sites: int
    reads_realigned: int
    reads_moved: int
    aligned_bases_before: int
    aligned_bases_after: int
    mismatch_before: int
    mismatch_after: int
    concordant_bases_before: int
    concordant_bases_after: int
    truth_aligned_bases: int
    indel_before: IndelRecovery
    indel_after: IndelRecovery
    site_outcomes: List[SiteOutcome] = field(default_factory=list)

    @property
    def mismatch_rate_before(self) -> float:
        return _ratio(self.mismatch_before, self.aligned_bases_before)

    @property
    def mismatch_rate_after(self) -> float:
        return _ratio(self.mismatch_after, self.aligned_bases_after)

    @property
    def concordance_before(self) -> float:
        return _ratio(self.concordant_bases_before, self.truth_aligned_bases)

    @property
    def concordance_after(self) -> float:
        return _ratio(self.concordant_bases_after, self.truth_aligned_bases)

    def to_dict(self) -> Dict[str, object]:
        return {
            "sample": self.sample,
            "reads": self.reads,
            "truth_variants": self.truth_variants,
            "truth_indels": self.truth_indels,
            "targets": self.targets,
            "sites": self.sites,
            "reads_realigned": self.reads_realigned,
            "reads_moved": self.reads_moved,
            "aligned_bases_before": self.aligned_bases_before,
            "aligned_bases_after": self.aligned_bases_after,
            "mismatch_before": self.mismatch_before,
            "mismatch_after": self.mismatch_after,
            "mismatch_rate_before": self.mismatch_rate_before,
            "mismatch_rate_after": self.mismatch_rate_after,
            "concordant_bases_before": self.concordant_bases_before,
            "concordant_bases_after": self.concordant_bases_after,
            "truth_aligned_bases": self.truth_aligned_bases,
            "concordance_before": self.concordance_before,
            "concordance_after": self.concordance_after,
            "indel_before": self.indel_before.to_dict(),
            "indel_after": self.indel_after.to_dict(),
            "sites_detail": [s.to_dict() for s in self.site_outcomes],
        }


@dataclass
class EvaluationReport:
    """The harness's top-level output for one scenario run."""

    scenario: str
    seed: int
    params: Dict[str, object] = field(default_factory=dict)
    samples: List[SampleEvaluation] = field(default_factory=list)
    trajectories: List[TrajectoryOutcome] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)

    def totals(self) -> Dict[str, object]:
        """Scenario-level aggregates across all samples."""
        total = {
            "reads": sum(s.reads for s in self.samples),
            "reads_moved": sum(s.reads_moved for s in self.samples),
            "reads_realigned": sum(s.reads_realigned for s in self.samples),
            "mismatch_before": sum(s.mismatch_before for s in self.samples),
            "mismatch_after": sum(s.mismatch_after for s in self.samples),
            "concordant_bases_before": sum(
                s.concordant_bases_before for s in self.samples),
            "concordant_bases_after": sum(
                s.concordant_bases_after for s in self.samples),
            "truth_aligned_bases": sum(
                s.truth_aligned_bases for s in self.samples),
        }
        total["concordance_before"] = _ratio(
            total["concordant_bases_before"], total["truth_aligned_bases"])
        total["concordance_after"] = _ratio(
            total["concordant_bases_after"], total["truth_aligned_bases"])
        return total

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "scenario": self.scenario,
            "seed": self.seed,
            "params": self.params,
            "samples": [s.to_dict() for s in self.samples],
            "totals": self.totals(),
        }
        if self.trajectories:
            payload["trajectories"] = [t.to_dict() for t in self.trajectories]
        if self.injected:
            payload["injected"] = dict(sorted(self.injected.items()))
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def summary(self) -> str:
        """The one-line outcome summary the CLI prints."""
        totals = self.totals()
        f1_after = (self.samples[0].indel_after.f1 if len(self.samples) == 1
                    else _mean_f1(self.samples))
        return (
            f"evaluate[{self.scenario}]: {len(self.samples)} sample(s), "
            f"{totals['reads']} reads, {totals['reads_moved']} moved; "
            f"mismatches {totals['mismatch_before']} -> "
            f"{totals['mismatch_after']}, concordance "
            f"{totals['concordance_before']:.4f} -> "
            f"{totals['concordance_after']:.4f}, truth-INDEL F1 "
            f"{f1_after:.4f}"
        )


def _mean_f1(samples: List[SampleEvaluation]) -> float:
    if not samples:
        return 0.0
    return round(sum(s.indel_after.f1 for s in samples) / len(samples), 6)
