"""Figure 7: synchronous- vs asynchronous-parallel scheduling.

The paper's toy experiment: "8 same-sized INDEL realignment targets that
contain 2 consensuses and 8 reads each (stripped down from real targets
in Ch22)" on 4 units. Under the synchronous scheme "the compute time for
target 3 is about 8 times longer than the compute time of target 1,
resulting in 3 out of 4 units idling for a majority of the total
runtime"; the asynchronous scheme "launch[es] a new target as soon as a
unit becomes free".

The variance between structurally identical targets comes entirely from
computation pruning, as in the paper. The scalar (TaskP-era) datapath is
used -- Figure 7 predates the data-parallel optimization in the paper's
narrative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.accelerator import IRUnit, UnitConfig
from repro.core.scheduler import (
    ScheduledTarget,
    ScheduleResult,
    charge_turnaround,
    coalesce_transfers,
    schedule_async,
    schedule_sync,
)
from repro.experiments.reporting import banner, format_table
from repro.telemetry import Telemetry
from repro.telemetry.metrics import ScheduleMetrics, derive_schedule_metrics
from repro.workloads.toy import figure7_toy_targets

#: Figure 7 runs the toy on 4 units.
NUM_UNITS = 4

#: The paper's observed compute-time ratio between targets 3 and 1.
PAPER_T3_OVER_T1 = 8.0

#: Transfer-coalescing group size for the batched-dispatch variant row
#: (one DMA burst per group of 4 targets; see coalesce_transfers).
DISPATCH_BATCH = 4

#: Host response-poll turnaround per dispatch group, in unit-clock
#: cycles (SystemConfig.response_latency_cycles' default: ~1 us of PCIe
#: round-trip at 125 MHz).
RESPONSE_LATENCY = 125


@dataclass
class Figure7Result:
    compute_cycles: List[int]
    sync: ScheduleResult
    async_: ScheduleResult
    #: Asynchronous scheme over coalesced transfers: the same compute
    #: spans fed one DMA burst per group of DISPATCH_BATCH targets.
    async_batched: ScheduleResult = None
    #: Batched dispatch with the host's response-poll turnaround charged
    #: to every group (single-buffered host: prepare, dispatch, wait).
    async_turnaround: ScheduleResult = None
    #: Same turnaround under double-buffered dispatch: group N+1 is
    #: prepared while N computes, so only the drain still pays it
    #: (charge_turnaround's double_buffer).
    async_overlapped: ScheduleResult = None
    #: One telemetry session per scheme; every number main() prints is
    #: read back from these recorders, not recomputed ad hoc.
    sync_telemetry: Telemetry = field(default_factory=Telemetry)
    async_telemetry: Telemetry = field(default_factory=Telemetry)

    @property
    def t3_over_t1(self) -> float:
        return self.compute_cycles[3] / self.compute_cycles[1]

    @property
    def async_speedup(self) -> float:
        return self.sync.makespan / self.async_.makespan

    @property
    def batched_speedup(self) -> float:
        """Batched-dispatch async over sync."""
        return self.sync.makespan / self.async_batched.makespan

    @property
    def overlap_speedup(self) -> float:
        """Double-buffered over single-buffered batched dispatch."""
        return self.async_turnaround.makespan / self.async_overlapped.makespan

    @property
    def sync_metrics(self) -> ScheduleMetrics:
        return derive_schedule_metrics(self.sync_telemetry)

    @property
    def async_metrics(self) -> ScheduleMetrics:
        return derive_schedule_metrics(self.async_telemetry)


def run(seed: int = 22) -> Figure7Result:
    sites = figure7_toy_targets(seed)
    unit = IRUnit(UnitConfig(lanes=1))
    cycles = [unit.run_site(site).cycles.total for site in sites]
    targets = [
        ScheduledTarget(index=i, transfer_cycles=120, compute_cycles=c)
        for i, c in enumerate(cycles)
    ]
    def with_turnaround(double_buffer: bool) -> List[ScheduledTarget]:
        return coalesce_transfers(
            charge_turnaround(targets, DISPATCH_BATCH, RESPONSE_LATENCY,
                              double_buffer),
            DISPATCH_BATCH,
        )

    sync_telemetry, async_telemetry = Telemetry(), Telemetry()
    return Figure7Result(
        compute_cycles=cycles,
        sync=schedule_sync(targets, NUM_UNITS, telemetry=sync_telemetry),
        async_=schedule_async(targets, NUM_UNITS,
                              telemetry=async_telemetry),
        async_batched=schedule_async(
            coalesce_transfers(targets, DISPATCH_BATCH), NUM_UNITS
        ),
        async_turnaround=schedule_async(
            with_turnaround(double_buffer=False), NUM_UNITS
        ),
        async_overlapped=schedule_async(
            with_turnaround(double_buffer=True), NUM_UNITS
        ),
        sync_telemetry=sync_telemetry,
        async_telemetry=async_telemetry,
    )


def _scheme_rows(telemetry: Telemetry, metrics: ScheduleMetrics) -> list:
    rows = []
    for block in telemetry.counters.iter_units():
        rows.append([
            f"unit {block.unit}", block.busy_cycles, block.stall_cycles,
            block.idle_cycles, block.targets_completed,
            f"{block.occupancy:.0%}",
        ])
    rows.append(["(mean)", "", "", "", "",
                 f"{metrics.mean_occupancy:.0%}"])
    return rows


def main() -> Figure7Result:
    outcome = run()
    print(banner("Figure 7: sync vs async scheduling (toy workload)"))
    print(format_table(
        ["target", "compute cycles", "vs target 1"],
        [[i, c, f"{c / outcome.compute_cycles[1]:.1f}x"]
         for i, c in enumerate(outcome.compute_cycles)],
    ))
    print(f"\ntarget3/target1 compute ratio: {outcome.t3_over_t1:.1f}x "
          f"(paper: ~{PAPER_T3_OVER_T1:.0f}x)")
    sync_metrics = outcome.sync_metrics
    async_metrics = outcome.async_metrics
    counter_header = ["unit", "busy", "stall", "idle", "targets",
                      "occupancy"]
    print("\nSynchronous-parallel (flush barrier between batches):")
    print(outcome.sync.ascii_timeline())
    print(format_table(
        counter_header,
        _scheme_rows(outcome.sync_telemetry, sync_metrics),
    ))
    print(f"makespan {outcome.sync.makespan} cycles, channel utilization "
          f"{sync_metrics.channel_utilization:.1%}, critical path "
          f"{sync_metrics.critical_path_spans} spans")
    print("\nAsynchronous-parallel (launch on response):")
    print(outcome.async_.ascii_timeline())
    print(format_table(
        counter_header,
        _scheme_rows(outcome.async_telemetry, async_metrics),
    ))
    print(f"makespan {outcome.async_.makespan} cycles, channel utilization "
          f"{async_metrics.channel_utilization:.1%}, critical path "
          f"{async_metrics.critical_path_spans} spans")
    print(f"\nasync over sync on this workload: {outcome.async_speedup:.2f}x "
          f"(occupancy {sync_metrics.mean_occupancy:.0%} -> "
          f"{async_metrics.mean_occupancy:.0%})")
    print(f"\nAsynchronous + batched dispatch (one DMA burst per "
          f"{DISPATCH_BATCH} targets):")
    print(outcome.async_batched.ascii_timeline())
    print(f"makespan {outcome.async_batched.makespan} cycles, "
          f"{outcome.batched_speedup:.2f}x over sync")
    print(f"\nDispatch turnaround ({RESPONSE_LATENCY} cycles per group of "
          f"{DISPATCH_BATCH}): single- vs double-buffered host")
    print(f"single-buffered makespan {outcome.async_turnaround.makespan} "
          f"cycles (every group pays the poll)")
    print(f"double-buffered makespan {outcome.async_overlapped.makespan} "
          f"cycles (only the drain pays), "
          f"{outcome.overlap_speedup:.3f}x")
    return outcome


if __name__ == "__main__":
    main()
