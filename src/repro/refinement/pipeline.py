"""The alignment refinement pipeline driver.

Runs the four Figure 1 refinement stages in order -- sort, duplicate
removal, INDEL realignment, base quality score recalibration -- over a
read set, optionally swapping the software realigner for the FPGA
system. Per-stage wall-clock and work counters feed the Figure 2/3
breakdown experiments from *executed* pipelines (complementing the
analytic census model in :mod:`repro.perf.pipelines`).
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.align.pileup import merge_columns, pileup
from repro.core.system import AcceleratedRealigner, SystemConfig
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.realign.realigner import IndelRealigner, RealignerReport
from repro.refinement.bqsr import recalibrate, variant_mask
from repro.refinement.duplicates import DuplicateReport, mark_duplicates
from repro.refinement.regions import (
    DEFAULT_REGION_GAP,
    contig_buckets,
    split_regions,
)
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


#: End-of-stream marker for the inter-stage queues.
_DONE = object()


class _PipelineStop(Exception):
    """Internal: a stage observed the stop event and is unwinding."""


class StreamingRefinementPipeline(RefinementPipeline):
    """Region-granular refinement with overlapped stages.

    The barrier pipeline runs each stage over the whole read set before
    the next may start; here sort, duplicate marking, realignment, and
    the BQSR pileup pass each run in their own thread, connected by
    bounded queues, and work flows through them one *region* at a time
    (:mod:`repro.refinement.regions` owns the cuts and the argument for
    why region-at-a-time is exact). While region N is being realigned,
    region N+1 is being deduplicated and N+2 sorted -- the same
    overlap the accelerated system gets from pipelining DMA against
    compute, applied to the host pipeline itself.

    The output :class:`PipelineResult` is byte-identical to
    :meth:`RefinementPipeline.run` -- same reads in the same order with
    the same flags, positions, CIGARs, and recalibrated qualities, and
    aggregate reports with the same totals. Only the BQSR model fit and
    quality rewrite wait for the drain: its variant mask needs the
    *global* pileup, so the pileup accumulates incrementally per region
    (the expensive pass) and the fit runs once at the end (the
    documented sequential tail -- see docs/PERFORMANCE.md).

    Stage timings report per-stage *busy* seconds (summed over
    regions); with overlap, their sum exceeds wall-clock, which is the
    point. Pipeline-plane observations land in ``stream_stats`` and,
    when a telemetry session is passed to :meth:`run`, as
    ``pipeline.*`` counters and one ``CAT_STREAM`` span per region per
    stage.
    """

    #: Queue-to-stage wiring, in flow order. Stage names match the
    #: barrier pipeline so breakdown experiments read both the same.
    STAGES = (
        "sort",
        "duplicate_marking",
        "indel_realignment",
        "base_quality_score_recalibration",
    )

    def __init__(
        self,
        reference: ReferenceGenome,
        use_accelerator: bool = False,
        system_config: Optional[SystemConfig] = None,
        engine=None,
        queue_depth: int = 2,
        region_gap: int = DEFAULT_REGION_GAP,
    ):
        """``engine`` is forwarded to the realigner (an
        :class:`repro.engine.EngineConfig` or live engine -- including
        a :class:`repro.engine.StreamingEngine`); ``queue_depth``
        bounds each inter-stage queue, which bounds how many regions
        exist in flight and therefore peak memory; ``region_gap`` is
        the minimum coverage gap at which a contig may be cut."""
        super().__init__(reference, use_accelerator=use_accelerator,
                         system_config=system_config)
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.engine = engine
        self.queue_depth = queue_depth
        self.region_gap = region_gap
        #: Pipeline-plane observations from the latest run.
        self.stream_stats: Dict[str, int] = {}

    def run(self, reads: Sequence[Read], telemetry=None) -> PipelineResult:
        """Run the overlapped pipeline; byte-identical to the barrier run."""
        from repro.telemetry.spans import CAT_STREAM

        if telemetry is not None and telemetry.ticks_per_second is None:
            telemetry.ticks_per_second = 1.0
        run_start = time.perf_counter()
        busy = {stage: 0.0 for stage in self.STAGES}
        waits = {stage: 0.0 for stage in self.STAGES}
        errors: List[BaseException] = []
        # One stop event shuts the whole pipeline down: every blocking
        # queue operation is a short-timeout poll of this event, so a
        # stage error -- or a KeyboardInterrupt in the main thread --
        # unwinds every thread within one tick instead of leaving them
        # blocked on full/empty queues forever.
        stop = threading.Event()
        queues = {
            stage: queue_module.Queue(maxsize=self.queue_depth)
            for stage in self.STAGES
        }

        def _put(outbox, item) -> None:
            while True:
                if stop.is_set():
                    raise _PipelineStop()
                try:
                    outbox.put(item, timeout=0.05)
                    return
                except queue_module.Full:
                    continue

        def _get(inbox):
            while True:
                if stop.is_set():
                    raise _PipelineStop()
                try:
                    return inbox.get(timeout=0.05)
                except queue_module.Empty:
                    continue

        def _forward(stage: str, outbox, items) -> None:
            for item in items:
                wait_start = time.perf_counter()
                _put(outbox, item)
                waits[stage] += time.perf_counter() - wait_start

        def _stage(stage: str, inbox, outbox,
                   transform: Callable[[int, List[Read]], Iterable]) -> None:
            try:
                while True:
                    item = _get(inbox)
                    if item is _DONE:
                        break
                    index, payload = item
                    start = time.perf_counter()
                    produced = list(transform(index, payload))
                    end = time.perf_counter()
                    busy[stage] += end - start
                    if telemetry is not None:
                        telemetry.span(
                            f"region {index}", f"pipeline {stage}",
                            start - run_start, end - run_start, CAT_STREAM,
                        )
                    _forward(stage, outbox, produced)
            except _PipelineStop:
                return  # shutdown: everyone downstream saw stop too
            except BaseException as exc:  # propagate to the caller
                errors.append(exc)
                stop.set()
                return
            try:
                _put(outbox, _DONE)
            except _PipelineStop:
                pass

        # -- stage transforms (each runs single-threaded in its stage) --
        region_counter = [0]

        def _sort(index: int, bucket: List[Read]) -> Iterable:
            ordered = sort_reads(bucket, self.reference)
            for region in split_regions(ordered, self.region_gap):
                tag = region_counter[0]
                region_counter[0] += 1
                yield (tag, region)

        dup_examined = [0]
        dup_marked = [0]

        def _dedup(index: int, region: List[Read]) -> Iterable:
            marked, report = mark_duplicates(region)
            dup_examined[0] += report.reads_examined
            dup_marked[0] += report.duplicates_marked
            yield (index, marked)

        realigner_report = RealignerReport()
        if self.use_accelerator:
            accelerated = AcceleratedRealigner(
                self.reference, self.system_config, engine=self.engine
            )

            def _do_realign(region):
                updated, _run, report = accelerated.realign(region)
                return updated, report
        else:
            software = IndelRealigner(self.reference, engine=self.engine)

            def _do_realign(region):
                return software.realign(region)

        def _realign(index: int, region: List[Read]) -> Iterable:
            updated, report = _do_realign(region)
            realigner_report.merge(report)
            yield (index, updated)

        # -- wire the threads and feed them ----------------------------
        # The feeder must be its own thread: the sort queue is bounded,
        # so feeding from the main thread would deadlock once the
        # aggregate queue capacity fills while the sole consumer of the
        # final queue (the main thread) is still stuck in put().
        feed_wait = [0.0]

        def _feed() -> None:
            try:
                buckets = contig_buckets(reads, self.reference)
                for index, bucket in enumerate(buckets):
                    wait_start = time.perf_counter()
                    _put(queues["sort"], (index, bucket))
                    feed_wait[0] += time.perf_counter() - wait_start
            except _PipelineStop:
                return
            except BaseException as exc:  # propagate to the caller
                errors.append(exc)
                stop.set()
                return
            try:
                _put(queues["sort"], _DONE)
            except _PipelineStop:
                pass

        threads = [
            threading.Thread(target=_feed, name="refine-feed", daemon=True)
        ] + [
            threading.Thread(
                target=_stage, name=f"refine-{stage}", daemon=True,
                args=(stage, queues[stage], queues[nxt], transform),
            )
            for stage, nxt, transform in (
                ("sort", "duplicate_marking", _sort),
                ("duplicate_marking", "indel_realignment", _dedup),
                ("indel_realignment",
                 "base_quality_score_recalibration", _realign),
            )
        ]
        for thread in threads:
            thread.start()

        # -- BQSR pileup pass: this thread is the final stage ----------
        bqsr_stage = "base_quality_score_recalibration"
        refined: List[Read] = []
        columns: Dict = {}
        regions_seen = 0
        inbox = queues[bqsr_stage]
        drained = False
        try:
            while True:
                try:
                    item = inbox.get(timeout=0.05)
                except queue_module.Empty:
                    if stop.is_set():
                        break  # a stage errored and the flow stopped
                    continue
                if item is _DONE:
                    drained = True
                    break
                index, region = item
                regions_seen += 1
                start = time.perf_counter()
                merge_columns(columns, pileup(region))
                refined.extend(region)
                end = time.perf_counter()
                busy[bqsr_stage] += end - start
                if telemetry is not None:
                    telemetry.span(
                        f"region {index}", f"pipeline {bqsr_stage}",
                        start - run_start, end - run_start, CAT_STREAM,
                    )
        finally:
            # If the drain loop exited early -- a stage error, or a
            # KeyboardInterrupt landing on this (main) thread -- the
            # stop event unwinds every blocked stage within one poll
            # tick, and the joins guarantee no thread outlives the run.
            if not drained:
                stop.set()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]

        # Sequential tail: the variant mask needs the complete pileup,
        # so the model fit + quality rewrite run once, after the drain.
        start = time.perf_counter()
        masked = variant_mask(columns, self.reference)
        refined, _model = recalibrate(refined, self.reference, masked=masked)
        busy[bqsr_stage] += time.perf_counter() - start

        result = PipelineResult(reads=refined)
        result.stages = [
            StageTiming(stage=stage, seconds=busy[stage])
            for stage in self.STAGES
        ]
        result.duplicate_report = DuplicateReport(
            reads_examined=dup_examined[0],
            duplicates_marked=dup_marked[0],
        )
        result.realigner_report = realigner_report
        backpressure_us = int((feed_wait[0] + sum(waits.values())) * 1e6)
        self.stream_stats = {
            "pipeline.regions": regions_seen,
            "pipeline.queue_depth": self.queue_depth,
            "pipeline.backpressure_us": backpressure_us,
        }
        if telemetry is not None:
            for name, value in self.stream_stats.items():
                telemetry.count(name, value)
        return result
