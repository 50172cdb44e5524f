"""The end-to-end software INDEL realigner (GATK3 functional baseline).

Drives the full per-contig flow: identify targets, assemble a
:class:`RealignmentSite` per target, run Algorithms 1 + 2, and rewrite the
winning reads' alignments. This is the *functional* reference against
which the accelerator model must be bit-identical; its *work counters*
(unpruned base comparisons) feed the performance models in
:mod:`repro.perf` and :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.kernels import KERNEL_CHOICES
from repro.realign.consensus import (
    ConsensusWindow,
    build_site,
    realigned_read_placement,
)
from repro.realign.site import SiteLimits, PAPER_LIMITS
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
    """Software INDEL realigner over a reference genome."""

    def __init__(
        self,
        reference: ReferenceGenome,
        creator_config: Optional[TargetCreatorConfig] = None,
        limits: SiteLimits = PAPER_LIMITS,
        scoring: str = "similarity",
        engine=None,
        kernel: str = "auto",
    ):
        """``scoring`` selects Algorithm 2's consensus-score semantics
        (see :func:`repro.realign.whd.score_and_select`).
        ``kernel`` names the WHD kernel of the default plane
        (``auto``/``scalar``/``vector``/``fft``/``bitpack``/``native``;
        see :func:`repro.engine.autotune.dispatch_realign`) -- every
        choice is exact, so outputs are identical.
        ``engine`` names the execution plane (:mod:`repro.engine`) the
        sites run on: an :class:`repro.engine.EngineConfig` (its
        ``scoring`` is overridden by this realigner's) or anything with
        ``run_sites`` -- a ready :class:`repro.engine.Engine` or
        streaming engine (used as-is; its config's scoring must
        match). None (the default) is the inline engine on
        ``kernel``. Every plane is byte-identical (pinned by goldens)."""
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {KERNEL_CHOICES}"
            )
        self.reference = reference
        self.creator_config = creator_config or TargetCreatorConfig(limits=limits)
        self.limits = limits
        self.kernel = kernel
        self.scoring = scoring
        self.engine = engine
        self._engine = None

    def _engine_instance(self):
        """Lazily resolve ``self.engine`` into a live plane.

        With no explicit engine the plane is the inline
        :class:`~repro.engine.Engine` (one worker: no pool, no
        pickling, the same per-site kernel dispatch).
        """
        if self._engine is None:
            from repro.engine import EngineConfig, resolve_engine

            engine = self.engine
            if engine is None:
                engine = EngineConfig(kernel=self.kernel)
            self._engine = resolve_engine(engine, self.scoring)
        return self._engine

    def build_sites(
        self, reads: Sequence[Read]
    ) -> Tuple[List[RealignmentTarget], List[ConsensusWindow]]:
        """Target identification + consensus generation, without realigning.

        Exposed separately because the accelerated system reuses exactly
        this front half on the host and offloads only the WHD kernel.
        """
        targets = identify_targets(reads, self.reference, self.creator_config)
        # A read belongs to exactly one target: consensus windows extend
        # beyond their (disjoint) target intervals, so without claiming,
        # a read anchored near two targets could be realigned twice with
        # order-dependent results. ``build_site`` decides membership with
        # ``reads_for_target``; it is handed the target's unclaimed
        # anchored reads, found through the start-sorted views, in
        # input order, instead of every read.
        views = _start_sorted(reads)
        claimed = np.zeros(len(reads), dtype=bool)
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
            candidates = np.sort(index[anchored & ~claimed[index]]).tolist()
            built = build_site(target, [reads[i] for i in candidates],
                               self.reference, self.limits)
            if built is not None:
                used = {id(read) for read in built.reads}
                claimed[[i for i in candidates if id(reads[i]) in used]] = True
                windows.append(built)
        return targets, windows

    def realign(
        self, reads: Sequence[Read], telemetry=None, observer=None
    ) -> Tuple[List[Read], RealignerReport]:
        """Realign a read set; returns (updated reads, report).

        Reads keep their input order. Each read is realigned at most once
        (targets are disjoint by construction). Every window's site
        runs through one ``run_sites`` call on the realigner's plane
        (:meth:`_engine_instance`), which ``telemetry`` is forwarded
        to; the realigned reads are byte-identical on any plane.

        ``observer``, when given, is called once per realigned site as
        ``observer(window, result, moved)`` where ``moved`` maps each
        repositioned read's name to its updated :class:`Read`. The
        evaluation harness uses this hook to attribute before/after
        outcome deltas to individual sites without re-deriving the
        window decomposition.
        """
        targets, windows = self.build_sites(reads)
        report = RealignerReport(
            targets_identified=len(targets),
            sites_built=len(windows),
            reads_examined=len(reads),
        )
        results = self._engine_instance().run_sites(
            [window.site for window in windows], telemetry=telemetry
        )
        updated = apply_site_results(reads, windows, results, report,
                                     observer=observer)
        return updated, report


def _start_sorted(reads: Sequence[Read]) -> Dict[str, tuple]:
    """Per contig, the reads a target may anchor, sorted by start.

    Each view is ``(pos, last, index, max_span)``: start, last covered
    position (``end - 1``) and input index of every mapped
    non-duplicate read of the contig in ascending ``pos``, and the
    largest reference span among them -- which bounds how far left of
    a target an anchored read can start.
    """
    columns: Dict[str, Tuple[List[int], List[int], List[int]]] = {}
    for index, read in enumerate(reads):
        if read.is_mapped and not read.is_duplicate:
            pos, last, indices = columns.setdefault(read.chrom, ([], [], []))
            pos.append(read.pos)
            last.append(read.end - 1)
            indices.append(index)
    views = {}
    for chrom, (pos, last, indices) in columns.items():
        pos, last, indices = np.array(pos), np.array(last), np.array(indices)
        order = np.argsort(pos)
        views[chrom] = (pos[order], last[order], indices[order],
                        int((last - pos).max()) + 1)
    return views


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
        for j, read in enumerate(window.reads):
            if result.realign[j]:
                updated_read = apply_realignment(
                    read, window, result.best_cons, int(result.new_pos[j])
                )
                updates[id(read)] = updated_read
                realigned += 1
                if (updated_read.pos != read.pos
                        or updated_read.cigar != read.cigar):
                    repositioned += 1
                    moved[read.name] = updated_read
        if report is not None:
            report.unpruned_comparisons += window.site.unpruned_comparisons()
            report.reads_realigned += realigned
            report.reads_moved += repositioned
        if observer is not None:
            observer(window, result, moved)
    return [updates.get(id(read), read) for read in reads]


def apply_realignment(
    read: Read,
    window: ConsensusWindow,
    best_cons: int,
    kernel_new_pos: int,
) -> Read:
    """Apply one kernel realignment decision to a read.

    The kernel reports ``new_pos = min_whd_idx + target_start`` (the
    read's winning offset against the picked consensus, translated by
    the window start); the host converts it into a reference-space
    position and CIGAR using the consensus's INDEL.
    """
    site = window.site
    consensus_offset = kernel_new_pos - site.start
    ref_pos, cigar = realigned_read_placement(
        window.indels[best_cons], site.start, consensus_offset, len(read)
    )
    return read.realigned(ref_pos, cigar)
