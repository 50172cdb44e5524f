"""The deployed accelerated IR system: a sea of IR units on an F1 FPGA.

Composes every piece of Figure 6: host control program (planning +
RoCC command streams), PCIe DMA transfer, the 32 IR units, the
sync/async scheduler, and the clock recipe. Three named design points
match the paper's evaluation (Figure 9 legend):

- ``IRAcc-TaskP`` -- 32 scalar units, synchronous-parallel scheduling;
- ``IRAcc-TaskP-Async`` -- 32 scalar units, asynchronous scheduling;
- ``IR ACC`` -- 32 data-parallel (32-lane) units, asynchronous
  scheduling; the shipped configuration.

The functional outputs of a run are bit-identical to the software
realigner (pinned by tests); the timing outputs come from the cycle
model plus the DMA/clock models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.accelerator import IRUnit, UnitConfig, UnitRunResult
from repro.core.host import HostPlan, plan_targets
from repro.core.scheduler import (
    ScheduledTarget,
    ScheduleResult,
    coalesce_transfers,
    schedule,
)
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.hw.clock import ClockRecipe, F1_CLOCK_125MHZ
from repro.hw.memory import PcieDmaModel
from repro.kernels import KERNEL_CHOICES
from repro.realign.realigner import (
    IndelRealigner,
    RealignerReport,
    apply_site_results,
)
from repro.realign.site import RealignmentSite, SiteLimits, PAPER_LIMITS

if TYPE_CHECKING:  # annotation-only: breaks the core <-> resilience cycle
    from repro.resilience.health import ResilienceStats
    from repro.resilience.policy import ResilienceConfig


@dataclass(frozen=True)
class SystemConfig:
    """One accelerated-system design point."""

    name: str = "IR ACC"
    num_units: int = 32
    lanes: int = 32
    prune: bool = True
    scoring: str = "similarity"
    scheduling: str = "async"
    clock: ClockRecipe = F1_CLOCK_125MHZ
    dma: PcieDmaModel = field(default_factory=PcieDmaModel)
    limits: SiteLimits = PAPER_LIMITS
    # Host dispatch turnaround per target: the unit's completion response
    # crosses the MMIO window, the host polls "response valid" and issues
    # the next target's start (Section IV's asynchronous scheme). ~1 us
    # of PCIe round-trip at 125 MHz.
    response_latency_cycles: int = 125
    # Batched dispatch: the host coalesces the DMA transfers of
    # ``dispatch_batch`` consecutive targets into one burst and answers
    # the whole group with a single response-poll turnaround (charged to
    # the group's last target). 1 (the default) reproduces the paper's
    # per-target dispatch exactly; larger groups amortize host overhead
    # the way the batched software engine amortizes kernel overhead.
    dispatch_batch: int = 1
    # Double-buffered host dispatch: while group N computes, the host
    # prepares and DMAs group N+1, so the response-poll turnaround of
    # every group except a round's last hides behind the next group's
    # compute instead of extending the unit's busy time (the software
    # mirror is the streaming engine's queue_depth >= 2 window). The
    # drain -- the final group, with nothing left to overlap -- still
    # pays the full turnaround. False (default) charges every group,
    # reproducing the single-buffered dispatch model bit-for-bit.
    double_buffer: bool = False
    # Fault tolerance: a ResilienceConfig switches the run into chaos
    # mode -- its FaultPlan injects faults, and the watchdog/retry/
    # quarantine/fallback machinery recovers from them. None (default)
    # is the paper's fault-free operation, bit-for-bit unchanged.
    resilience: Optional[ResilienceConfig] = None

    def __post_init__(self) -> None:
        if self.num_units <= 0:
            raise ValueError("num_units must be positive")
        if self.dispatch_batch <= 0:
            raise ValueError("dispatch_batch must be positive")
        if self.scheduling not in ("sync", "async"):
            raise ValueError(f"unknown scheduling scheme {self.scheduling!r}")
        if self.resilience is not None and self.scheduling != "async":
            raise ValueError(
                "fault recovery requires asynchronous scheduling: the "
                "watchdog lives in the MMIO response-polling loop"
            )

    # -- the paper's three design points --------------------------------
    @classmethod
    def taskp(cls) -> "SystemConfig":
        """IRAcc-TaskP: task parallelism only (scalar units, sync)."""
        return cls(name="IRAcc-TaskP", lanes=1, scheduling="sync")

    @classmethod
    def taskp_async(cls) -> "SystemConfig":
        """IRAcc-TaskP-Async: + asynchronous scheduling."""
        return cls(name="IRAcc-TaskP-Async", lanes=1, scheduling="async")

    @classmethod
    def iracc(cls) -> "SystemConfig":
        """IR ACC: + 32-wide data parallelism (the shipped design)."""
        return cls(name="IR ACC", lanes=32, scheduling="async")


@dataclass
class SystemRunResult:
    """Outcome of running a site list through the accelerated system."""

    config: SystemConfig
    unit_results: List[UnitRunResult]
    schedule: ScheduleResult
    host_plan: HostPlan
    total_seconds: float
    transfer_seconds: float
    replication: int = 1
    resilience: Optional[ResilienceStats] = None

    @property
    def targets_processed(self) -> int:
        return len(self.unit_results) * self.replication

    @property
    def compute_cycles(self) -> int:
        return self.replication * sum(r.cycles.total for r in self.unit_results)

    @property
    def comparisons(self) -> int:
        return self.replication * sum(r.comparisons for r in self.unit_results)

    @property
    def unpruned_comparisons(self) -> int:
        return self.replication * sum(
            r.unpruned_comparisons for r in self.unit_results
        )

    @property
    def pruned_fraction(self) -> float:
        total = self.unpruned_comparisons
        if total == 0:
            return 0.0
        return 1.0 - self.comparisons / total

    @property
    def utilization(self) -> float:
        return self.schedule.utilization

    @property
    def transfer_fraction(self) -> float:
        """Share of the runtime spent on PCIe DMA (paper: ~0.01%)."""
        if self.total_seconds == 0:
            return 0.0
        return self.transfer_seconds / self.total_seconds

    @property
    def comparisons_per_second(self) -> float:
        """Delivered base-pair comparisons per second.

        The paper quotes the sea of accelerators as processing "up to 4
        billion base pair comparisons per second"; this reports the
        achieved (post-pruning) rate; the *effective* rate --
        unpruned-equivalent work per second -- is higher.
        """
        if self.total_seconds == 0:
            return 0.0
        return self.comparisons / self.total_seconds

    @property
    def effective_comparisons_per_second(self) -> float:
        if self.total_seconds == 0:
            return 0.0
        return self.unpruned_comparisons / self.total_seconds

    # -- fault-tolerance observability ----------------------------------
    @property
    def active_units(self) -> int:
        """Units still in service at the end of the run (N - k)."""
        if self.resilience is None:
            return self.config.num_units
        return self.resilience.active_units

    @property
    def fault_events(self) -> int:
        return 0 if self.resilience is None else (
            self.resilience.counters.total_injected
        )

    @property
    def fallback_site_indices(self) -> set:
        """Distinct input sites that completed on the software fallback.

        Scheduled positions replicate the site list round by round;
        a site counts as fallen back if *any* of its replicas did.
        """
        if self.resilience is None or not self.unit_results:
            return set()
        num_sites = len(self.unit_results)
        return {
            position % num_sites
            for position, mode in self.resilience.completions.items()
            if mode == "sw"
        }


class AcceleratedIRSystem:
    """The full FPGA-accelerated INDEL realignment system."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self._unit = IRUnit(
            UnitConfig(
                lanes=self.config.lanes,
                prune=self.config.prune,
                scoring=self.config.scoring,
                limits=self.config.limits,
            )
        )

    def peak_comparisons_per_second(self) -> float:
        """Datapath peak: units x lanes x clock (the "4 billion" figure
        corresponds to 32 scalar units at 125 MHz; the data-parallel
        design raises the peak 32x)."""
        return (
            self.config.num_units * self.config.lanes
            * self.config.clock.frequency_hz
        )

    def run(self, sites: Sequence[RealignmentSite],
            replication: int = 1, telemetry=None) -> SystemRunResult:
        """Process every site; returns functional results + timing.

        ``unit_results`` stays parallel to the input ``sites`` order.
        Targets dispatch in arrival (FIFO) order, as the paper's host
        control program does.

        ``replication`` schedules ``replication`` rounds of the site
        list while computing each distinct site exactly once (identical
        inputs produce identical hardware results and cycle counts).
        The paper's measurements amortize scheduling over 48,000-320,000
        targets per chromosome; bench-scale runs use replication to
        reach the same steady state without simulating tens of
        thousands of sites. ``total_seconds`` and ``transfer_seconds``
        then describe the replicated workload -- compare them against a
        software baseline over the same ``len(sites) * replication``
        targets.

        ``telemetry`` optionally records the run: the scheduler's span
        timeline (one track per unit plus the PCIe channel), per-unit
        performance counters with the kernel's WHD cell counts folded
        in, and the DMA byte totals. Passing a recorder changes no
        functional output (pinned by property tests).
        """
        if replication <= 0:
            raise ValueError("replication must be positive")
        if telemetry is not None and telemetry.ticks_per_second is None:
            telemetry.ticks_per_second = self.config.clock.frequency_hz
        plan = plan_targets(
            sites,
            unit_assignment=[i % self.config.num_units
                             for i in range(len(sites))],
            dispatch_batch=self.config.dispatch_batch,
            telemetry=telemetry,
        )
        unit_results: List[UnitRunResult] = []
        transfers: List[float] = []
        for site in sites:
            unit_results.append(self._unit.run_site(site, mode="analytic"))
            transfers.append(
                self.config.dma.streaming_seconds(
                    site.input_bytes() + site.output_bytes()
                )
            )
        transfer_cycles = [
            self.config.dma.streaming_cycles(
                site.input_bytes() + site.output_bytes(), self.config.clock
            )
            for site in sites
        ]
        scheduled: List[ScheduledTarget] = []
        batch = self.config.dispatch_batch
        for round_index in range(replication):
            round_targets: List[ScheduledTarget] = []
            for index, result in enumerate(unit_results):
                # Batched dispatch answers a whole group with one poll
                # turnaround, charged to the group's last member; with
                # batch == 1 every target is its group's last, which is
                # exactly the paper's per-target dispatch. Double
                # buffering hides that turnaround behind the next
                # group's (already-prepared) compute, so only a round's
                # final group -- the drain -- still pays it.
                last_in_round = index == len(unit_results) - 1
                last_in_group = index % batch == batch - 1 or last_in_round
                charged = last_in_group and (
                    not self.config.double_buffer or last_in_round
                )
                latency = (self.config.response_latency_cycles
                           if charged else 0)
                round_targets.append(
                    ScheduledTarget(
                        index=index,
                        transfer_cycles=transfer_cycles[index],
                        compute_cycles=result.cycles.total + latency,
                    )
                )
            scheduled.extend(coalesce_transfers(round_targets, batch))
        resilience = self.config.resilience
        dma_penalties = None
        if resilience is not None:
            # Channel cycles wasted per faulted transfer attempt, from
            # the PCIe model's error/timeout latencies.
            per_site = [
                tuple(
                    int(round(self.config.clock.seconds_to_cycles(
                        self.config.dma.faulted_transfer_seconds(
                            site.input_bytes() + site.output_bytes(), outcome
                        )
                    )))
                    for outcome in ("error", "timeout")
                )
                for site in sites
            ]
            dma_penalties = per_site * replication
        timeline = schedule(scheduled, self.config.num_units,
                            self.config.scheduling,
                            resilience=resilience,
                            dma_penalties=dma_penalties,
                            telemetry=telemetry)
        total_seconds = self.config.clock.cycles_to_seconds(timeline.makespan)
        if telemetry is not None:
            self._record_run_counters(telemetry, sites, unit_results,
                                      timeline, replication)
        return SystemRunResult(
            config=self.config,
            unit_results=unit_results,
            schedule=timeline,
            host_plan=plan,
            total_seconds=total_seconds,
            transfer_seconds=sum(transfers) * replication,
            replication=replication,
            resilience=(timeline.stats() if resilience is not None else None),
        )


    def _record_run_counters(self, telemetry, sites, unit_results,
                             timeline, replication) -> None:
        """Fold the kernel's WHD cell counts into the unit counters.

        Each dispatch recomputes its site on the unit that ran it (the
        scheduler's span/completion records name that unit), so cell
        counters accumulate per dispatch, replication included.
        """
        totals = {"evaluated": 0, "pruned": 0}

        def credit(unit: int, site_index: int) -> None:
            result = unit_results[site_index]
            block = telemetry.unit(unit)
            pruned = result.unpruned_comparisons - result.comparisons
            block.whd_cells_evaluated += result.comparisons
            block.whd_cells_pruned += pruned
            totals["evaluated"] += result.comparisons
            totals["pruned"] += pruned

        completion_units = getattr(timeline, "completion_units", None)
        if completion_units is None:
            # Fault-free scheduler: every timeline span is a completion.
            for span in timeline.spans:
                credit(span.unit, span.target_index)
        else:
            num_sites = len(unit_results)
            for position, unit in completion_units.items():
                credit(unit, position % num_sites)
        telemetry.count("kernel.cells_evaluated", totals["evaluated"])
        telemetry.count("kernel.cells_pruned", totals["pruned"])
        telemetry.count("schedule.targets", len(sites) * replication)
        telemetry.count(
            "dma.bytes_planned",
            replication * sum(
                site.input_bytes() + site.output_bytes() for site in sites
            ),
        )


class AcceleratedRealigner:
    """End-to-end INDEL realignment with the kernel offloaded to the FPGA.

    Runs the host-side front half (target identification + consensus
    generation, shared with :class:`repro.realign.IndelRealigner`), ships
    every site through the accelerated system, and applies the hardware's
    realign decisions to the reads. Output reads are bit-identical to
    the software realigner's.
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        config: Optional[SystemConfig] = None,
        engine=None,
        kernel: str = "auto",
    ):
        """``engine`` optionally names the software kernel that serves
        fallback sites (targets that exhaust hardware recovery): an
        :class:`repro.engine.EngineConfig` (its ``scoring`` is overridden
        by the system config's) or anything with ``run_sites`` (a live
        engine). None (the default) is the inline
        engine on ``kernel``. Every plane is bit-identical to the
        hardware's decisions by construction."""
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {KERNEL_CHOICES}"
            )
        self.reference = reference
        self.system = AcceleratedIRSystem(config)
        self._front_half = IndelRealigner(reference)
        self.engine = engine
        self.kernel = kernel
        self._engine = None

    def _engine_instance(self):
        if self._engine is None:
            from repro.engine import EngineConfig, resolve_engine

            engine = self.engine
            if engine is None:
                engine = EngineConfig(kernel=self.kernel)
            self._engine = resolve_engine(engine,
                                          self.system.config.scoring)
        return self._engine

    def realign(
        self, reads: Sequence[Read], telemetry=None
    ) -> Tuple[List[Read], SystemRunResult, RealignerReport]:
        targets, windows = self._front_half.build_sites(reads)
        report = RealignerReport(
            targets_identified=len(targets),
            sites_built=len(windows),
            reads_examined=len(reads),
        )
        site_list = [window.site for window in windows]
        run = self.system.run(site_list, telemetry=telemetry)
        fallback = run.fallback_site_indices
        fallback_results: Dict[int, "SiteResult"] = {}
        if fallback:
            # Graceful degradation: these targets exhausted hardware
            # recovery, so their decisions come from the software
            # kernel -- bit-identical to the unit's by construction
            # (pinned by the hardware/software equivalence tests). All
            # fallback sites run through one call on the engine.
            indices = sorted(fallback)
            batched = self._engine_instance().run_sites(
                [windows[i].site for i in indices], telemetry=telemetry
            )
            fallback_results = dict(zip(indices, batched))
        results = [fallback_results.get(index, result)
                   for index, result in enumerate(run.unit_results)]
        updated = apply_site_results(reads, windows, results, report)
        return updated, run, report
