"""The deployed accelerated IR system: a sea of IR units on an F1 FPGA.

Composes every piece of Figure 6: host control program (planning +
RoCC command streams), PCIe DMA transfer, the 32 IR units, the
sync/async scheduler, and the clock recipe. Three named design points
match the paper's evaluation (Figure 9 legend):

- ``IRAcc-TaskP`` -- 32 scalar units, synchronous-parallel scheduling;
- ``IRAcc-TaskP-Async`` -- 32 scalar units, asynchronous scheduling;
- ``IR ACC`` -- 32 data-parallel (32-lane) units, asynchronous
  scheduling; the shipped configuration.

The system is an engine: :meth:`AcceleratedIRSystem.run_sites` is the
``run_sites`` contract :class:`repro.realign.IndelRealigner` drives, so
``IndelRealigner(reference, engine=AcceleratedIRSystem(config))`` runs
the host's front half and the kernel on the model. The functional
outputs of a run are bit-identical to the host engine's (pinned by
tests); the timing outputs come from the cycle model plus the
DMA/clock models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.accelerator import IRUnit, UnitConfig, UnitRunResult
from repro.core.host import plan_targets
from repro.core.scheduler import ScheduledTarget, ScheduleResult, schedule
from repro.hw.clock import ClockRecipe, F1_CLOCK_125MHZ
from repro.hw.memory import PcieDmaModel
from repro.realign.site import RealignmentSite, SiteLimits, PAPER_LIMITS


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

    def __post_init__(self) -> None:
        if self.num_units <= 0:
            raise ValueError("num_units must be positive")
        if self.scheduling not in ("sync", "async"):
            raise ValueError(f"unknown scheduling scheme {self.scheduling!r}")

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
    total_seconds: float
    transfer_seconds: float
    replication: int = 1

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


class AcceleratedIRSystem:
    """The full FPGA-accelerated INDEL realignment system.

    An engine, like :class:`repro.engine.Engine`: :meth:`run_sites`
    returns one result per site, and the run behind them -- modelled
    time, schedule, pruning -- is kept as ``last_run``, the way an
    engine keeps ``shard_stats`` for its latest run.
    """

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        #: The latest :meth:`run_sites` call's run (None before one).
        self.last_run: Optional[SystemRunResult] = None
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

    def run_sites(self, sites: Sequence[RealignmentSite],
                  telemetry=None) -> List[UnitRunResult]:
        """The engine contract: :meth:`run` ``sites`` once, keep the run
        as ``last_run``, and return its ``unit_results`` -- one per
        site, in input order."""
        self.last_run = self.run(sites, telemetry=telemetry)
        return self.last_run.unit_results

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
        # Planned for its DRAM-capacity check and its host.* counters.
        plan_targets(
            sites,
            unit_assignment=[i % self.config.num_units
                             for i in range(len(sites))],
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
        # Every round dispatches the same targets, each charged the
        # host's response-poll turnaround (per-target dispatch: the
        # batch_size == 1 case of scheduler.charge_turnaround).
        one_round = [
            ScheduledTarget(
                index=index,
                transfer_cycles=transfer_cycles[index],
                compute_cycles=(result.cycles.total
                                + self.config.response_latency_cycles),
            )
            for index, result in enumerate(unit_results)
        ]
        timeline = schedule(one_round * replication, self.config.num_units,
                            self.config.scheduling, telemetry=telemetry)
        total_seconds = self.config.clock.cycles_to_seconds(timeline.makespan)
        if telemetry is not None:
            self._record_run_counters(telemetry, sites, unit_results,
                                      timeline, replication)
        return SystemRunResult(
            config=self.config,
            unit_results=unit_results,
            schedule=timeline,
            total_seconds=total_seconds,
            transfer_seconds=sum(transfers) * replication,
            replication=replication,
        )

    def _record_run_counters(self, telemetry, sites, unit_results,
                             timeline, replication) -> None:
        """Fold the kernel's WHD cell counts into the unit counters.

        Each dispatch recomputes its site on the unit that ran it (the
        scheduler's span names that unit), so cell counters accumulate
        per dispatch, replication included.
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

        for span in timeline.spans:
            credit(span.unit, span.target_index)
        telemetry.count("kernel.cells_evaluated", totals["evaluated"])
        telemetry.count("kernel.cells_pruned", totals["pruned"])
        telemetry.count("schedule.targets", len(sites) * replication)
        telemetry.count(
            "dma.bytes_planned",
            replication * sum(
                site.input_bytes() + site.output_bytes() for site in sites
            ),
        )
