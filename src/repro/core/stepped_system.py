"""Protocol-level system simulation (validation of the analytic model).

Where :class:`repro.core.system.AcceleratedIRSystem` composes closed-form
cycle counts with an abstract scheduler, this module *plays out the
protocol*: the host control program issues the Table I command streams
through the MMIO register file and the RoCC command router, units go
busy for their computed cycle counts, completions post responses that
the host polls, and the PCIe channel serializes transfers. It exists to
validate that the abstract scheduler's makespans are faithful to the
handshake-level behaviour (pinned by tests to a small tolerance), and to
exercise the router/MMIO machinery under realistic multi-unit load.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.accelerator import IRUnit, UnitConfig, UnitRunResult
from repro.core.host import plan_targets
from repro.core.router import RoccCommandRouter
from repro.core.system import SystemConfig
from repro.hw.axi import AxiLiteBus, MmioRegisterFile
from repro.realign.site import RealignmentSite


@dataclass
class SteppedRunResult:
    """Outcome of a protocol-level run."""

    makespan_cycles: int
    unit_results: List[UnitRunResult]
    starts: List[Tuple[int, int, int]]  # (target, unit, start_cycle)
    commands_issued: int
    responses_polled: int

    @property
    def targets_processed(self) -> int:
        return len(self.starts)


class SteppedIRSystem:
    """Event-driven host + router + units simulation."""

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config or SystemConfig()
        self._unit = IRUnit(UnitConfig(
            lanes=self.config.lanes,
            prune=self.config.prune,
            scoring=self.config.scoring,
            limits=self.config.limits,
        ))
        self._bus = AxiLiteBus()

    def _config_cycles(self, commands) -> int:
        """Host cycles to push one target's command stream over AXILite."""
        cycles = 0
        for command in commands:
            words = 1 + (2 if command.xs1 else 0) + (2 if command.xs2 else 0)
            cycles += self._bus.write_cycles(words)
        return cycles

    def run(self, sites: Sequence[RealignmentSite],
            telemetry=None) -> SteppedRunResult:
        """Process sites FIFO through the full dispatch protocol.

        ``telemetry`` optionally records the handshake-level run: MMIO
        queue counters, router command counters, per-dispatch host
        configuration spans, and per-target compute spans on the unit
        tracks -- the protocol-level view of the same timeline the
        abstract scheduler traces.
        """
        config = self.config
        if telemetry is not None and telemetry.ticks_per_second is None:
            telemetry.ticks_per_second = config.clock.frequency_hz
        mmio = MmioRegisterFile(telemetry=telemetry)
        router = RoccCommandRouter(config.num_units, mmio=mmio,
                                   telemetry=telemetry)
        plan = plan_targets(
            sites,
            unit_assignment=[0] * len(sites),  # rewritten at dispatch
            telemetry=telemetry,
        )
        unit_results = [self._unit.run_site(site) for site in sites]
        compute_cycles = [result.cycles.total for result in unit_results]
        transfer_cycles = [
            config.dma.streaming_cycles(
                site.input_bytes() + site.output_bytes(), config.clock
            )
            for site in sites
        ]

        host_time = 0
        channel_time = 0
        # (busy_until, unit): min-heap of unit availability.
        units: List[Tuple[int, int]] = [(0, u) for u in range(config.num_units)]
        heapq.heapify(units)
        starts: List[Tuple[int, int, int]] = []
        commands_issued = 0
        responses_polled = 0
        makespan = 0
        for index, site in enumerate(sites):
            if telemetry is not None:
                telemetry.span(f"xfer {index}", "pcie-channel",
                               channel_time,
                               channel_time + transfer_cycles[index],
                               "transfer")
            channel_time += transfer_cycles[index]
            busy_until, unit = heapq.heappop(units)
            if busy_until > 0:
                # The unit had a previous target: its completion response
                # crosses MMIO and the host polls it before re-dispatch.
                router.complete(unit)
                assert router.poll_completion() == unit
                responses_polled += 1
                ready = busy_until + config.response_latency_cycles
            else:
                ready = 0
            # Host issues the command stream (serialized on the host CPU).
            from repro.core.isa import target_command_stream

            commands = target_command_stream(
                unit, site, plan.targets[index].buffer_addrs
            )
            host_time = max(host_time, ready, channel_time)
            config_start = host_time
            host_time += self._config_cycles(commands)
            for command in commands:
                started = router.dispatch(command)
                commands_issued += 1
            assert started == unit
            start = host_time
            end = start + compute_cycles[index]
            starts.append((index, unit, start))
            if telemetry is not None:
                telemetry.span(f"config {index}", "host",
                               config_start, host_time, "config",
                               commands=len(commands))
                telemetry.span(f"target {index}", f"unit {unit}",
                               start, end, "compute")
            heapq.heappush(units, (end, unit))
            makespan = max(makespan, end)
        # Drain outstanding completions.
        while units:
            busy_until, unit = heapq.heappop(units)
            if busy_until > 0 and router.units[unit].busy:
                router.complete(unit)
                router.poll_completion()
                responses_polled += 1
        if telemetry is not None:
            telemetry.count("stepped.commands_issued", commands_issued)
            telemetry.count("stepped.responses_polled", responses_polled)
        return SteppedRunResult(
            makespan_cycles=makespan,
            unit_results=unit_results,
            starts=starts,
            commands_issued=commands_issued,
            responses_polled=responses_polled,
        )
