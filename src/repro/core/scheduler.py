"""Target scheduling across the sea of IR units (Section IV, Figure 7).

Computation per target "var[ies] significantly and can lead to
performance degradation if not scheduled properly, i.e. having all units
wait for the slowest unit to finish before accepting new targets". Two
schemes:

- **synchronous-parallel**: transfer a batch of ``num_units`` targets,
  launch all units, wait for every unit to finish, flush, repeat. The
  batch's cost is the *maximum* of its members -- pruning-induced
  variance leaves most units idle (Figure 7 top).
- **asynchronous-parallel**: each unit posts a RoCC response on
  completion; the host polls the MMIO ``response valid`` signal and
  immediately launches the next scheduled target on the freed unit
  (Figure 7 bottom). Transfers overlap compute.

Both schedulers work in unit-clock cycles over abstract
:class:`ScheduledTarget` records so they can be driven by the cycle
model, the toy Figure 7 workload, or hypothesis-generated cases.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import List, Sequence


@dataclass(frozen=True)
class ScheduledTarget:
    """One target's scheduling footprint.

    ``transfer_cycles`` occupies the single shared host->FPGA transfer
    channel; ``compute_cycles`` occupies one IR unit.
    """

    index: int
    transfer_cycles: int
    compute_cycles: int

    def __post_init__(self) -> None:
        if self.transfer_cycles < 0 or self.compute_cycles < 0:
            raise ValueError("cycle counts must be non-negative")


@dataclass(frozen=True)
class TimelineSpan:
    """One target's execution on one unit."""

    target_index: int
    unit: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class ScheduleResult:
    """Outcome of scheduling a target list onto ``num_units`` units."""

    num_units: int
    makespan: int
    spans: List[TimelineSpan] = field(default_factory=list)
    transfer_cycles_total: int = 0

    @property
    def busy_cycles(self) -> List[int]:
        busy = [0] * self.num_units
        for span in self.spans:
            busy[span.unit] += span.duration
        return busy

    @property
    def utilization(self) -> float:
        """Mean fraction of the makespan the units spent computing."""
        if self.makespan == 0:
            return 0.0
        return sum(self.busy_cycles) / (self.num_units * self.makespan)

    def ascii_timeline(self, width: int = 72) -> str:
        """Render the Figure 7-style timing diagram."""
        if self.makespan == 0:
            return "(empty schedule)"
        scale = width / self.makespan
        lines = []
        for unit in range(self.num_units):
            cells = [" "] * width
            for span in self.spans:
                if span.unit != unit:
                    continue
                lo = int(span.start * scale)
                hi = max(lo + 1, int(span.end * scale))
                label = str(span.target_index % 10)
                for x in range(lo, min(hi, width)):
                    cells[x] = label
            lines.append(f"unit {unit:2d} |{''.join(cells)}|")
        return "\n".join(lines)


def coalesce_transfers(
    targets: Sequence[ScheduledTarget], batch_size: int
) -> List[ScheduledTarget]:
    """Merge each group of ``batch_size`` consecutive targets' transfers.

    Models the host's batched dispatch (Section V-A step 2 at a coarser
    granularity): a whole group's input arrays are DMA'd as one large
    chunk before the group launches, so the group's first target carries
    the summed transfer cycles and the rest ride along for free. Total
    channel occupancy is preserved -- only its packing changes -- which
    is what lets the asynchronous scheduler overlap one group's compute
    with the next group's single, larger transfer. ``batch_size == 1``
    returns the targets unchanged.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if batch_size == 1:
        return list(targets)
    out: List[ScheduledTarget] = []
    for lo in range(0, len(targets), batch_size):
        group = targets[lo:lo + batch_size]
        total = sum(t.transfer_cycles for t in group)
        for pos, target in enumerate(group):
            out.append(
                ScheduledTarget(
                    index=target.index,
                    transfer_cycles=total if pos == 0 else 0,
                    compute_cycles=target.compute_cycles,
                )
            )
    return out


def charge_turnaround(
    targets: Sequence[ScheduledTarget], batch_size: int,
    turnaround_cycles: int, double_buffer: bool,
) -> List[ScheduledTarget]:
    """Add the host's response-poll turnaround to each dispatch group.

    Batched dispatch answers a whole group of ``batch_size`` consecutive
    targets with one poll turnaround, charged to the group's last
    member; with ``batch_size == 1`` every target is its group's last,
    which is exactly the paper's per-target dispatch. Double buffering
    hides that turnaround behind the next group's (already-prepared)
    compute, so only the final group -- the drain -- still pays it.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    last = len(targets) - 1
    out: List[ScheduledTarget] = []
    for pos, target in enumerate(targets):
        last_in_group = pos % batch_size == batch_size - 1 or pos == last
        if last_in_group and (not double_buffer or pos == last):
            target = replace(target, compute_cycles=target.compute_cycles
                             + turnaround_cycles)
        out.append(target)
    return out


def schedule_sync(
    targets: Sequence[ScheduledTarget], num_units: int, telemetry=None
) -> ScheduleResult:
    """Synchronous-parallel: batched launch with a full flush barrier.

    The batch's input data is transferred first (serialized on the
    shared channel), every unit launches together, and the next batch's
    transfer begins only after the slowest unit finishes (Figure 7 top).
    """
    if num_units <= 0:
        raise ValueError("num_units must be positive")
    result = ScheduleResult(num_units=num_units, makespan=0)
    clock = 0
    for batch_start in range(0, len(targets), num_units):
        batch = targets[batch_start : batch_start + num_units]
        transfer = sum(t.transfer_cycles for t in batch)
        result.transfer_cycles_total += transfer
        if telemetry is not None:
            xfer_clock = clock
            for target in batch:
                telemetry.span(
                    f"xfer {target.index}", "pcie-channel", xfer_clock,
                    xfer_clock + target.transfer_cycles, "transfer",
                )
                xfer_clock += target.transfer_cycles
        clock += transfer
        launch = clock
        batch_end = launch
        for unit, target in enumerate(batch):
            end = launch + target.compute_cycles
            result.spans.append(
                TimelineSpan(target.index, unit, launch, end)
            )
            batch_end = max(batch_end, end)
        clock = batch_end  # synchronous flush: wait for the slowest unit
    result.makespan = clock
    if telemetry is not None:
        telemetry.count("schedule.sync_batches",
                        -(-len(targets) // num_units) if targets else 0)
        telemetry.record_compute_spans(result)
        telemetry.finalize_unit_cycles(result)
    return result


def schedule_async(
    targets: Sequence[ScheduledTarget], num_units: int, telemetry=None
) -> ScheduleResult:
    """Asynchronous-parallel: launch on any unit as soon as it responds.

    Transfers are pipelined with compute on the shared channel; a target
    starts at ``max(its transfer done, its unit free)`` (Figure 7
    bottom).
    """
    if num_units <= 0:
        raise ValueError("num_units must be positive")
    result = ScheduleResult(num_units=num_units, makespan=0)
    # (free_time, unit): earliest-free unit wins; ties by unit index.
    free: List = [(0, unit) for unit in range(num_units)]
    heapq.heapify(free)
    channel_time = 0
    makespan = 0
    for target in targets:
        if telemetry is not None:
            telemetry.span(
                f"xfer {target.index}", "pcie-channel", channel_time,
                channel_time + target.transfer_cycles, "transfer",
            )
        channel_time += target.transfer_cycles
        result.transfer_cycles_total += target.transfer_cycles
        unit_free, unit = heapq.heappop(free)
        start = max(channel_time, unit_free)
        end = start + target.compute_cycles
        result.spans.append(TimelineSpan(target.index, unit, start, end))
        heapq.heappush(free, (end, unit))
        makespan = max(makespan, end)
    result.makespan = makespan
    if telemetry is not None:
        telemetry.record_compute_spans(result)
        telemetry.finalize_unit_cycles(result)
    return result


def schedule(
    targets: Sequence[ScheduledTarget],
    num_units: int,
    scheme: str,
    telemetry=None,
) -> ScheduleResult:
    """Dispatch on scheme name: ``'sync'`` or ``'async'``."""
    if scheme == "sync":
        return schedule_sync(targets, num_units, telemetry=telemetry)
    if scheme == "async":
        return schedule_async(targets, num_units, telemetry=telemetry)
    raise ValueError(f"unknown scheduling scheme {scheme!r}")
