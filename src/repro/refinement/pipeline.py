"""The alignment refinement pipeline driver.

Runs the four Figure 1 refinement stages in order -- sort, duplicate
removal, INDEL realignment, base quality score recalibration -- over a
read set, optionally swapping the software realigner for the FPGA
system. Per-stage wall-clock and work counters feed the Figure 2/3
breakdown experiments from *executed* pipelines (complementing the
analytic census model in :mod:`repro.perf.pipelines`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.system import AcceleratedRealigner, SystemConfig
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.realign.realigner import IndelRealigner, RealignerReport
from repro.refinement.bqsr import recalibrate
from repro.refinement.duplicates import DuplicateReport, mark_duplicates
from repro.refinement.sort import sort_reads


@dataclass(frozen=True)
class StageTiming:
    """One stage's measured cost."""

    stage: str
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("stage time must be non-negative")


@dataclass
class PipelineResult:
    """Everything a refinement run produced."""

    reads: List[Read]
    stages: List[StageTiming] = field(default_factory=list)
    duplicate_report: Optional[DuplicateReport] = None
    realigner_report: Optional[RealignerReport] = None

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def fraction(self, stage_name: str) -> float:
        """One stage's share of the pipeline's measured time."""
        total = self.total_seconds
        if total == 0:
            return 0.0
        return sum(
            stage.seconds for stage in self.stages if stage.stage == stage_name
        ) / total


class RefinementPipeline:
    """Sort -> duplicate marking -> INDEL realignment -> BQSR."""

    def __init__(
        self,
        reference: ReferenceGenome,
        use_accelerator: bool = False,
        system_config: Optional[SystemConfig] = None,
        kernel: str = "auto",
    ):
        """``kernel`` is forwarded to the software realigner. Profiling
        experiments pin it so their measured stage breakdown does not
        depend on what ``auto`` means or on whether a compiled backend
        loaded."""
        self.reference = reference
        self.use_accelerator = use_accelerator
        self.system_config = system_config
        self.kernel = kernel

    def _timed(self, result: PipelineResult, stage: str,
               action: Callable[[], object]) -> object:
        start = time.perf_counter()
        value = action()
        result.stages.append(
            StageTiming(stage=stage, seconds=time.perf_counter() - start)
        )
        return value

    def run(self, reads: Sequence[Read]) -> PipelineResult:
        """Run the full refinement pipeline over ``reads``."""
        result = PipelineResult(reads=list(reads))

        result.reads = self._timed(
            result, "sort", lambda: sort_reads(result.reads, self.reference)
        )

        def _dupes() -> List[Read]:
            marked, report = mark_duplicates(result.reads)
            result.duplicate_report = report
            return marked

        result.reads = self._timed(result, "duplicate_marking", _dupes)

        def _realign() -> List[Read]:
            if self.use_accelerator:
                realigner = AcceleratedRealigner(
                    self.reference, self.system_config
                )
                updated, _run, report = realigner.realign(result.reads)
            else:
                updated, report = IndelRealigner(
                    self.reference, kernel=self.kernel
                ).realign(result.reads)
            result.realigner_report = report
            return updated

        result.reads = self._timed(result, "indel_realignment", _realign)

        def _bqsr() -> List[Read]:
            updated, _model = recalibrate(result.reads, self.reference)
            return updated

        result.reads = self._timed(
            result, "base_quality_score_recalibration", _bqsr
        )
        return result
