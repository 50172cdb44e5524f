"""Cycle-stepped memory-fabric simulation (Figure 6's right half).

Validates the design assumption the analytic system model leans on: that
buffer-fill traffic from 32 concurrently active IR units, funnelled
through each unit's *Intra-IR Mem ARB 5:1* and the shared *IR Mem ARB
32:1* onto one DDR4 channel, adds negligible stall time compared to
compute ("This allows us to trade memory controller area and wiring for
more IR compute units").

The simulation steps beats: each unit's five channels (three MemReaders,
two MemWriters) hold per-channel beat queues; every cycle each unit's
5:1 round-robin arbiter nominates one channel, the 32:1 arbiter grants
up to ``ddr_beats_per_cycle`` of the nominations (DDR4 at 16 GB/s
against a 125 MHz fabric serves ~4 32-byte beats per fabric cycle), and
granted beats retire. The outcome is the fill-phase stretch factor
versus an uncontended fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.buffers import BLOCK_BYTES
from repro.hw.arbiter import RoundRobinArbiter
from repro.realign.site import RealignmentSite

#: Channels per IR unit: consensus/read/qual MemReaders + 2 MemWriters.
CHANNELS_PER_UNIT = 5

#: DDR4-2400 at ~16 GB/s effective vs a 125 MHz fabric moving 32-byte
#: beats: 16e9 / 125e6 / 32 = 4 beats per fabric cycle.
DDR_BEATS_PER_CYCLE = 4


@dataclass(frozen=True)
class UnitFillRequest:
    """Beat counts one unit's five channels need for one target."""

    channel_beats: Sequence[int]

    def __post_init__(self) -> None:
        if len(self.channel_beats) != CHANNELS_PER_UNIT:
            raise ValueError(
                f"a unit has {CHANNELS_PER_UNIT} memory channels, got "
                f"{len(self.channel_beats)}"
            )
        if any(b < 0 for b in self.channel_beats):
            raise ValueError("beat counts must be non-negative")

    @property
    def total_beats(self) -> int:
        return sum(self.channel_beats)

    @classmethod
    def for_site(cls, site: RealignmentSite) -> "UnitFillRequest":
        """The Figure 6 channel loads for one target."""
        def beats(num_bytes: int) -> int:
            return -(-num_bytes // BLOCK_BYTES)

        return cls(channel_beats=(
            sum(beats(len(c)) for c in site.consensuses),
            sum(beats(len(r)) for r in site.reads),
            sum(beats(len(r)) for r in site.reads),
            beats(site.num_reads),  # realign flags writeback
            beats(4 * site.num_reads),  # new positions writeback
        ))


@dataclass
class FabricResult:
    """Outcome of one fabric simulation."""

    cycles: int
    beats_served: int
    per_unit_finish: List[int]

    def unit_stretch(self, unit: int, request_beats: int) -> float:
        """One unit's slowdown versus owning an uncontended
        1-beat/cycle port (its fill would then take ``request_beats``
        cycles)."""
        if request_beats == 0:
            return 1.0
        return self.per_unit_finish[unit] / request_beats


def simulate_fill(
    requests: Sequence[UnitFillRequest],
    ddr_beats_per_cycle: int = DDR_BEATS_PER_CYCLE,
    max_cycles: int = 10_000_000,
) -> FabricResult:
    """Step the two-level arbitration fabric until every beat retires."""
    if ddr_beats_per_cycle <= 0:
        raise ValueError("DDR must serve at least one beat per cycle")
    num_units = len(requests)
    remaining: List[List[int]] = [list(r.channel_beats) for r in requests]
    intra = [RoundRobinArbiter(CHANNELS_PER_UNIT) for _ in range(num_units)]
    system = RoundRobinArbiter(max(num_units, 1))
    finish = [0] * num_units
    served = 0
    cycle = 0
    while any(any(c > 0 for c in channels) for channels in remaining):
        cycle += 1
        if cycle > max_cycles:
            raise RuntimeError("fabric simulation exceeded the cycle guard")
        # Level 1: each unit nominates one pending channel.
        nominations: Dict[int, int] = {}
        for unit, channels in enumerate(remaining):
            pending = [i for i, beats in enumerate(channels) if beats > 0]
            if pending:
                nominations[unit] = intra[unit].grant(pending)
        # Level 2: the 32:1 arbiter grants up to the DDR beat budget.
        for _slot in range(ddr_beats_per_cycle):
            if not nominations:
                break
            unit = system.grant(list(nominations))
            channel = nominations.pop(unit)
            remaining[unit][channel] -= 1
            served += 1
            if all(beats == 0 for beats in remaining[unit]):
                finish[unit] = cycle
    return FabricResult(cycles=cycle, beats_served=served,
                        per_unit_finish=finish)


def fill_stretch_for_sites(
    sites: Sequence[RealignmentSite],
    ddr_beats_per_cycle: int = DDR_BEATS_PER_CYCLE,
) -> float:
    """Worst per-unit fill stretch when these sites fill concurrently.

    This is the factor the analytic model would have to apply to fill
    cycles if contention mattered; the resources experiment shows it is
    small and fills are a tiny slice of compute anyway.
    """
    requests = [UnitFillRequest.for_site(site) for site in sites]
    result = simulate_fill(requests, ddr_beats_per_cycle)
    return max(
        result.unit_stretch(unit, request.total_beats)
        for unit, request in enumerate(requests)
    )
