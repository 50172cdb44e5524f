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

from repro.genomics.cigar import Cigar
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
        /``native``; see :func:`repro.engine.autotune.dispatch_realign`);
        an engine names its own kernel, so passing both is an error.
        Every kernel and every engine is exact, so outputs are identical
        (pinned by goldens). ``creator_config.limits`` bounds the sites
        the front half builds."""
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {KERNEL_CHOICES}"
            )
        if engine is not None and kernel != "auto":
            raise ValueError(
                f"kernel={kernel!r} conflicts with engine=: the engine "
                "runs its own kernel (EngineConfig(kernel=...))"
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
        # order-dependent results. Membership is decided here, once, on
        # the start-sorted views (the rule of ``reads_for_target``):
        # ``build_site`` is handed the target's unclaimed anchored
        # reads, in input order.
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
    ) -> Tuple[List[ConsensusWindow], List[List], RealignerReport]:
        """Decide every read once: ``(windows, moved, report)``.

        Every window's site runs through one ``run_sites`` call on the
        realigner's plane (:meth:`_engine_instance`), which
        ``telemetry`` is forwarded to; the results are byte-identical
        on any plane. ``moved`` is :func:`moved_records` of them, which
        also fills the report's realigned, moved and unpruned counts.
        Nothing is applied: :func:`apply_moved` applies ``moved`` to a
        read list, :func:`repro.genomics.samlite.write_patched` to the
        input's text."""
        targets, windows = self.build_sites(reads)
        report = RealignerReport(
            targets_identified=len(targets),
            sites_built=len(windows),
            reads_examined=len(reads),
        )
        results = self._engine_instance().run_sites(
            [window.site for window in windows], telemetry=telemetry
        )
        return windows, moved_records(windows, results, report), report

    def realign(
        self, reads: Sequence[Read], telemetry=None
    ) -> Tuple[List[Read], RealignerReport]:
        """Realign a read set; returns (updated reads, report).

        Reads keep their input order. Each read is realigned at most once
        (targets are disjoint by construction): :meth:`decide`, then
        :func:`apply_moved`.
        """
        _windows, moved, report = self.decide(reads, telemetry)
        return apply_moved(reads, moved), report


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


def moved_records(
    windows: Sequence[ConsensusWindow],
    results: Sequence[SiteResult],
    report: Optional[RealignerReport] = None,
) -> List[List]:
    """The one walk over the kernel's decisions: ``[index, pos, cigar]``
    -- new 1-based POS, new CIGAR -- for each read they move, in input
    order, without building a moved read. ``index`` counts the reads
    ``build_sites`` was given, which ``windows`` must come from;
    ``report``, when given, gains the realigned / moved /
    unpruned-comparison counts. The kernel's ``new_pos`` is the read's
    winning offset against the picked consensus plus the window start;
    :func:`realigned_read_placement` turns it into reference space. A
    read re-confirmed at its input placement is realigned, not moved.
    """
    records = []
    for window, result in zip(windows, results):
        start = window.site.start
        indel = window.indels[result.best_cons]
        realigned = np.flatnonzero(result.realign).tolist()
        for j in realigned:
            read = window.reads[j]
            pos, cigar = realigned_read_placement(
                indel, start, int(result.new_pos[j]) - start, len(read))
            if pos != read.pos or cigar != read.cigar:
                records.append([window.indices[j], pos + 1, str(cigar)])
        if report is not None:
            report.unpruned_comparisons += window.site.unpruned_comparisons()
            report.reads_realigned += len(realigned)
    if report is not None:
        report.reads_moved += len(records)
    return sorted(records)


def apply_moved(reads: Sequence[Read], moved: Sequence[Sequence]) -> List[Read]:
    """``reads`` with each ``[index, pos, cigar]`` record of ``moved``
    (:func:`moved_records`) applied, in input order. Only a moved read
    is copied; every other read comes back as the input object."""
    updated = list(reads)
    for index, pos, cigar in moved:
        updated[index] = updated[index].realigned(pos - 1, Cigar.parse(cigar))
    return updated


def apply_site_results(
    reads: Sequence[Read],
    windows: Sequence[ConsensusWindow],
    results: Sequence[SiteResult],
    report: Optional[RealignerReport] = None,
) -> List[Read]:
    """:func:`apply_moved` of :func:`moved_records`, for a caller that
    ran the kernel itself (the end-to-end benchmark's traced stages);
    ``windows`` must come from ``build_sites(reads)``."""
    return apply_moved(reads, moved_records(windows, results, report))
