"""The host-side control program model.

Section V-A describes the C/C++ control program: it "1) mallocs
input/output arrays in the host memory, 2) transfers large data chunks
from the host to the FPGA-attached DRAM and vice versa, 3) configures
and starts the accelerators one unit at a time ... and 4) waits for
responses and configures and starts the units that are finished with the
previous task."

This module plans step 1-3 for a list of sites: a bump allocator lays
the byte-per-base input arrays out in FPGA DRAM ("organized in
consecutive malloc'ed memory arrays of one byte per base or per quality
score ... for streaming processing"), and per-target command streams are
generated through :func:`repro.core.isa.target_command_stream`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.isa import BufferId, RoccCommand, target_command_stream
from repro.hw.axi import AxiLiteBus
from repro.hw.memory import DdrChannelModel
from repro.realign.site import RealignmentSite


class HostPlanError(RuntimeError):
    """Raised when a plan cannot fit the FPGA memory."""


@dataclass
class WatchdogBank:
    """Armed watchdog timers, one per in-flight unit dispatch."""

    deadlines: Dict[int, int] = field(default_factory=dict)
    expirations: int = 0

    def arm(self, unit: int, deadline: int) -> None:
        if unit in self.deadlines:
            raise HostPlanError(f"unit {unit} already has an armed watchdog")
        self.deadlines[unit] = deadline

    def disarm(self, unit: int) -> None:
        self.deadlines.pop(unit, None)

    def expire(self, unit: int) -> None:
        """The unit's deadline passed without a response."""
        if unit not in self.deadlines:
            raise HostPlanError(f"unit {unit} has no armed watchdog")
        del self.deadlines[unit]
        self.expirations += 1

    def expired(self, now: int) -> List[int]:
        """Units whose deadlines have passed at cycle ``now``."""
        return sorted(u for u, d in self.deadlines.items() if d <= now)

    def next_deadline(self) -> Optional[int]:
        return min(self.deadlines.values()) if self.deadlines else None


@dataclass(frozen=True)
class TargetPlan:
    """Host-side plan for one target."""

    site_index: int
    buffer_addrs: Dict[BufferId, int]
    input_bytes: int
    output_bytes: int
    commands: List[RoccCommand]

    @property
    def total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes


@dataclass
class HostPlan:
    """The whole run's memory layout and command streams."""

    targets: List[TargetPlan] = field(default_factory=list)
    bytes_allocated: int = 0

    @property
    def total_commands(self) -> int:
        return sum(len(t.commands) for t in self.targets)

    @property
    def total_input_bytes(self) -> int:
        return sum(t.input_bytes for t in self.targets)

    @property
    def total_output_bytes(self) -> int:
        return sum(t.output_bytes for t in self.targets)

    def config_cycles(self, bus: AxiLiteBus = AxiLiteBus()) -> int:
        """AXILite cycles the host spends issuing every command.

        Each RoCC command crosses the 32-bit AXILite window as three
        words (instruction word + two 64-bit operands would be five; the
        model charges the instruction word plus one word per live
        operand, matching the MMIO register map's width).
        """
        cycles = 0
        for target in self.targets:
            for command in target.commands:
                words = 1 + (2 if command.xs1 else 0) + (2 if command.xs2 else 0)
                cycles += bus.write_cycles(words)
        return cycles


def plan_targets(
    sites: Sequence[RealignmentSite],
    ddr: DdrChannelModel = DdrChannelModel(),
    unit_assignment: Sequence[int] = (),
    dispatch_batch: int = 1,
    telemetry=None,
) -> HostPlan:
    """Lay out every site's buffers in FPGA DRAM and build its commands.

    ``unit_assignment`` optionally names the unit each target's command
    stream addresses (defaults to round-robin over 32, matching the
    dispatch order of the asynchronous scheduler's steady state).
    ``dispatch_batch`` is the host's transfer-coalescing group size (see
    :func:`repro.core.scheduler.coalesce_transfers`); it changes no
    buffer layout or command stream -- groups share DMA bursts, not
    memory -- but is accounted as ``host.batches_planned``.
    ``telemetry`` optionally counts the plan's footprint (commands
    generated, bytes allocated) on the host's counter namespace.
    """
    if dispatch_batch <= 0:
        raise ValueError("dispatch_batch must be positive")
    plan = HostPlan()
    cursor = 0

    def allocate(num_bytes: int) -> int:
        nonlocal cursor
        address = cursor
        # 64-byte alignment: one 512-bit AXI beat.
        cursor += -(-num_bytes // 64) * 64
        return address

    for index, site in enumerate(sites):
        cons_bytes = sum(len(c) for c in site.consensuses)
        read_bytes = sum(len(r) for r in site.reads)
        addrs = {
            BufferId.CONSENSUS_BASES: allocate(cons_bytes),
            BufferId.READ_BASES: allocate(read_bytes),
            BufferId.READ_QUALS: allocate(read_bytes),
            BufferId.OUT_REALIGN: allocate(site.num_reads),
            BufferId.OUT_POSITIONS: allocate(4 * site.num_reads),
        }
        unit = (
            unit_assignment[index]
            if index < len(unit_assignment)
            else index % 32
        )
        plan.targets.append(
            TargetPlan(
                site_index=index,
                buffer_addrs=addrs,
                input_bytes=site.input_bytes(),
                output_bytes=site.output_bytes(),
                commands=target_command_stream(unit, site, addrs),
            )
        )
    plan.bytes_allocated = cursor
    if not ddr.fits(plan.bytes_allocated):
        raise HostPlanError(
            f"plan needs {plan.bytes_allocated} B, exceeding the "
            f"{ddr.capacity_bytes} B DDR channel"
        )
    if telemetry is not None:
        telemetry.count("host.targets_planned", len(plan.targets))
        telemetry.count("host.commands_planned", plan.total_commands)
        telemetry.count("host.bytes_allocated", plan.bytes_allocated)
        telemetry.count("host.config_cycles", plan.config_cycles())
        telemetry.count(
            "host.batches_planned",
            -(-len(plan.targets) // dispatch_batch) if plan.targets else 0,
        )
    return plan
