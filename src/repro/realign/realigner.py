"""The end-to-end software INDEL realigner (GATK3 functional baseline).

Drives the full per-contig flow: identify targets, assemble a
:class:`RealignmentSite` per target, run Algorithms 1 + 2, and rewrite the
winning reads' alignments. This is the *functional* reference against
which the accelerator model must be bit-identical; its *work counters*
(unpruned base comparisons) feed the performance models in
:mod:`repro.perf` and :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.genomics.read import (
    CONTIG,
    END,
    FLAG,
    FLAG_DUPLICATE,
    POS,
    Read,
    ReadBatch,
    as_batch,
)
from repro.genomics.reference import ReferenceGenome
from repro.kernels import KERNEL_CHOICES
from repro.realign.consensus import (
    ConsensusWindow,
    build_site,
    realigned_read_placement,
)
from repro.realign.targets import (
    RealignmentTarget,
    TargetCreatorConfig,
    identify_targets,
)
from repro.realign.whd import SiteResult


@dataclass
class RealignerReport:
    """Aggregate statistics of one realignment run.

    ``reads_realigned`` counts the kernel's realign decisions;
    ``reads_moved`` counts the strict subset whose placement
    ``(pos, cigar)`` actually changed -- a read the kernel re-confirms
    at its input placement is realigned but not moved. The evaluation
    harness (:mod:`repro.evaluate`) reports both.
    """

    targets_identified: int = 0
    sites_built: int = 0
    reads_examined: int = 0
    reads_realigned: int = 0
    reads_moved: int = 0
    unpruned_comparisons: int = 0


class IndelRealigner:
    """INDEL realigner over a reference genome: the front half on the
    host, the WHD kernel on its engine (host threads or the FPGA
    model)."""

    def __init__(
        self,
        reference: ReferenceGenome,
        creator_config: Optional[TargetCreatorConfig] = None,
        engine=None,
        kernel: str = "auto",
    ):
        """``engine`` is where the WHD kernel runs
        (:func:`repro.engine.resolve_engine`): an
        :class:`repro.engine.EngineConfig`, or anything with the
        ``run_sites`` contract -- a ready :class:`repro.engine.Engine`
        or the FPGA model, :class:`repro.core.system.AcceleratedIRSystem`
        -- used as is. The engine's config carries Algorithm 2's score
        method (``scoring``). None (the default) is the default engine
        on ``kernel`` (``auto``/``scalar``/``vector``/``fft``/``bitpack``
        /``native``; see :func:`repro.engine.autotune.dispatch_realign`).
        Every kernel and every engine is exact, so outputs are identical
        (pinned by goldens). ``creator_config.limits`` bounds the sites
        the front half builds."""
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {KERNEL_CHOICES}"
            )
        self.reference = reference
        self.creator_config = creator_config or TargetCreatorConfig()
        self.kernel = kernel
        self.engine = engine
        self._engine = None

    def _engine_instance(self):
        """Lazily resolve ``self.engine`` into a live plane.

        With no explicit engine the plane is a default
        :class:`~repro.engine.Engine` on ``kernel``: one unit thread per
        CPU this process may run on (inline on a one-CPU host), started
        on its first pooled run and joined when the engine -- held only
        by this realigner -- is collected with it.
        """
        if self._engine is None:
            from repro.engine import EngineConfig, resolve_engine

            engine = self.engine
            if engine is None:
                engine = EngineConfig(kernel=self.kernel)
            self._engine = resolve_engine(engine)
        return self._engine

    def build_sites(
        self, reads: Union[Sequence[Read], ReadBatch]
    ) -> Tuple[List[RealignmentTarget], List[ConsensusWindow]]:
        """Target identification + consensus generation, without realigning.

        Exposed separately because the served path and the end-to-end
        benchmark run the kernel on an engine of their own.
        ``reads`` is a list, or a :class:`~repro.genomics.read.ReadBatch`
        whose columns decide targets and membership: a read is built
        only as a candidate of a target where some candidate's CIGAR
        carries an INDEL, because :func:`build_site` proposes only the
        INDELs its reads carry and builds no site without one.
        """
        batch = as_batch(reads, self.reference)
        targets = identify_targets(batch, self.reference, self.creator_config)
        # A read belongs to exactly one target: consensus windows extend
        # beyond their (disjoint) target intervals, so without claiming,
        # a read anchored near two targets could be realigned twice with
        # order-dependent results. ``build_site`` decides membership with
        # ``reads_for_target``; it is handed the target's unclaimed
        # anchored reads, found through the start-sorted views, in
        # input order, instead of every read.
        views = _start_sorted(batch)
        claimed = np.zeros(len(batch), dtype=bool)
        carries = batch.indel
        windows: List[ConsensusWindow] = []
        for target in targets:
            if target.chrom not in views:
                continue
            pos, last, index, max_span = views[target.chrom]
            # An anchored read starts no further left than the longest
            # read reaches back, and no further right than the target's
            # end (which only a read spanning no reference base hits).
            near = slice(np.searchsorted(pos, target.start - max_span),
                         np.searchsorted(pos, target.end, side="right"))
            pos, last, index = pos[near], last[near], index[near]
            anchored = (((target.start <= pos) & (pos < target.end))
                        | ((target.start <= last) & (last < target.end)))
            candidates = np.sort(index[anchored & ~claimed[index]])
            if not carries[candidates].any():
                continue
            candidates = candidates.tolist()
            members = [batch.read(i) for i in candidates]
            built = build_site(target, members, self.reference,
                               self.creator_config.limits)
            if built is not None:
                position = {id(read): i
                            for i, read in zip(candidates, members)}
                indices = tuple(position[id(read)] for read in built.reads)
                claimed[list(indices)] = True
                windows.append(replace(built, indices=indices))
        return targets, windows

    def decide(
        self, reads: Union[Sequence[Read], ReadBatch], telemetry=None
    ) -> Tuple[List[ConsensusWindow], List[SiteResult], RealignerReport]:
        """The front half and the kernel, nothing applied:
        ``(windows, results, report)``. Every window's site runs through
        one ``run_sites`` call on the realigner's plane
        (:meth:`_engine_instance`), which ``telemetry`` is forwarded
        to; the results are byte-identical on any plane. The report
        counts targets, sites and reads examined; applying the results
        (:func:`apply_site_results`, :func:`moved_records`) counts the
        rest."""
        targets, windows = self.build_sites(reads)
        report = RealignerReport(
            targets_identified=len(targets),
            sites_built=len(windows),
            reads_examined=len(reads),
        )
        results = self._engine_instance().run_sites(
            [window.site for window in windows], telemetry=telemetry
        )
        return windows, results, report

    def realign(
        self, reads: Sequence[Read], telemetry=None, observer=None
    ) -> Tuple[List[Read], RealignerReport]:
        """Realign a read set; returns (updated reads, report).

        Reads keep their input order. Each read is realigned at most once
        (targets are disjoint by construction): :meth:`decide`, then
        :func:`apply_site_results`.

        ``observer``, when given, is called once per realigned site as
        ``observer(window, result, moved)`` where ``moved`` maps each
        repositioned read's name to its updated :class:`Read`. The
        evaluation harness uses this hook to attribute before/after
        outcome deltas to individual sites without re-deriving the
        window decomposition.
        """
        windows, results, report = self.decide(reads, telemetry)
        updated = apply_site_results(reads, windows, results, report,
                                     observer=observer)
        return updated, report


def _start_sorted(batch: ReadBatch) -> Dict[str, tuple]:
    """Per contig, the reads a target may anchor, sorted by start.

    Each view is ``(pos, last, index, max_span)``: start, last covered
    position (``end - 1``) and input index of every mapped
    non-duplicate read of the contig in ascending ``pos``, and the
    largest reference span among them -- which bounds how far left of
    a target an anchored read can start.
    """
    columns = batch.columns
    contig = columns[CONTIG]
    eligible = (contig >= 0) & ((columns[FLAG] & FLAG_DUPLICATE) == 0)
    views = {}
    for k in np.flatnonzero(np.bincount(contig[eligible])).tolist():
        indices = np.flatnonzero(eligible & (contig == k))
        pos, last = columns[POS][indices], columns[END][indices] - 1
        order = np.argsort(pos)
        views[batch.contigs[k]] = (pos[order], last[order], indices[order],
                                   int((last - pos).max()) + 1)
    return views


def _realigned(window: ConsensusWindow, result: SiteResult):
    """``(j, read, pos, cigar)`` for each read ``j`` of ``window`` the
    kernel realigned: its new reference placement. The kernel reports
    ``new_pos = min_whd_idx + target_start`` (the read's winning offset
    against the picked consensus, translated by the window start); the
    host converts it into a reference-space position and CIGAR using
    the consensus's INDEL."""
    start = window.site.start
    indel = window.indels[result.best_cons]
    for j in np.flatnonzero(result.realign).tolist():
        read = window.reads[j]
        yield (j, read, *realigned_read_placement(
            indel, start, int(result.new_pos[j]) - start, len(read)))


def _count(report, window, realigned, moved) -> None:
    if report is not None:
        report.unpruned_comparisons += window.site.unpruned_comparisons()
        report.reads_realigned += realigned
        report.reads_moved += moved


def apply_site_results(
    reads: Sequence[Read],
    windows: Sequence[ConsensusWindow],
    results: Sequence[SiteResult],
    report: Optional[RealignerReport] = None,
    observer=None,
) -> List[Read]:
    """Apply the kernel's decisions to ``reads`` -- the back half every
    realigner shares (software, accelerated, served).

    ``windows`` must come from ``build_sites(reads)`` on this very list:
    updates are keyed on the input object, not its name (mates share a
    QNAME). Reads keep their input order. ``report``, when given, gains
    the realigned / moved / unpruned-comparison counts; ``observer`` is
    called once per site as ``observer(window, result, moved)`` with
    ``moved`` mapping each repositioned read's name to its updated
    :class:`Read`.
    """
    updates: Dict[int, Read] = {}
    for window, result in zip(windows, results):
        moved: Dict[str, Read] = {}
        realigned = repositioned = 0  # counted per read: names repeat
        for _j, read, pos, cigar in _realigned(window, result):
            updated = updates[id(read)] = read.realigned(pos, cigar)
            realigned += 1
            if pos != read.pos or cigar != read.cigar:
                repositioned += 1
                moved[read.name] = updated
        _count(report, window, realigned, repositioned)
        if observer is not None:
            observer(window, result, moved)
    return [updates.get(id(read), read) for read in reads]


def moved_records(
    windows: Sequence[ConsensusWindow],
    results: Sequence[SiteResult],
    report: Optional[RealignerReport] = None,
) -> List[List]:
    """``[index, pos, cigar]`` -- new 1-based POS, new CIGAR -- for each
    read the kernel's decisions move, in input order, without building
    a moved read: ``index`` counts the reads ``build_sites`` was given,
    which ``windows`` must come from; ``report`` counts
    as in :func:`apply_site_results`. With the input's text this is the
    whole output: every realign path patches these into the input's
    lines, and the server replies with them.
    """
    records = []
    for window, result in zip(windows, results):
        realigned = moved = 0
        for j, read, pos, cigar in _realigned(window, result):
            realigned += 1
            if pos != read.pos or cigar != read.cigar:
                records.append([window.indices[j], pos + 1, str(cigar)])
                moved += 1
        _count(report, window, realigned, moved)
    return sorted(records)
