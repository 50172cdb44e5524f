"""Span tracing: the run's timeline as first-class records.

A :class:`Telemetry` session collects everything one run of the
accelerated system observes about itself: complete spans (a named
interval on a named track -- one track per IR unit, one for the PCIe
transfer channel) and the
:class:`~repro.telemetry.counters.CounterBoard`.

The instrumentation contract is *zero overhead when disabled*: hot
paths take ``telemetry: Optional[Telemetry] = None`` and guard every
event site with ``if telemetry is not None`` -- no null-object method
calls, no string formatting, nothing on the fast path when tracing
is off. Property tests pin that enabling telemetry changes no
functional output byte.

Timestamps are integer ticks on the recorder's own timebase --
unit-clock cycles for the cycle model (``ticks_per_second`` from the
:class:`~repro.hw.clock.ClockRecipe`), seconds for fleet timelines
(``ticks_per_second=1``). Exporters use the timebase to emit real
microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.telemetry.counters import (
    CHANNEL_UNIT,
    CounterBoard,
    UnitCounters,
)

#: Span categories (Chrome trace_event ``cat`` field).
CAT_COMPUTE = "compute"      # a target computing on an IR unit
CAT_TRANSFER = "transfer"    # PCIe channel occupancy for one target
CAT_FLEET = "fleet"          # one job on one fleet instance
CAT_ENGINE = "engine"        # one shard on a host unit thread


def unit_track(unit: int) -> str:
    """Canonical track name for a unit id (the channel included)."""
    if unit == CHANNEL_UNIT:
        return "pcie-channel"
    return f"unit {unit}"


@dataclass(frozen=True)
class TraceSpan:
    """One complete interval on one track.

    Frozen and fully hashable, so two runs' span *sets* compare with
    ``set(a) == set(b)``.
    """

    name: str
    track: str
    start: int
    end: int
    category: str = CAT_COMPUTE
    args: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"span {self.name!r} ends before it starts "
                f"({self.start}..{self.end})"
            )

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Telemetry:
    """One run's telemetry session: spans + counters."""

    ticks_per_second: Optional[float] = None
    label: str = "repro"
    spans: List[TraceSpan] = field(default_factory=list)
    counters: CounterBoard = field(default_factory=CounterBoard)

    # -- recording ------------------------------------------------------
    def span(self, name: str, track: str, start: int, end: int,
             category: str = CAT_COMPUTE, **args: int) -> TraceSpan:
        record = TraceSpan(name=name, track=track, start=start, end=end,
                           category=category,
                           args=tuple(sorted(args.items())))
        self.spans.append(record)
        return record

    def count(self, name: str, delta: int = 1) -> None:
        self.counters.add(name, delta)

    def unit(self, unit_id: int) -> UnitCounters:
        return self.counters.unit(unit_id)

    # -- scheduler integration ------------------------------------------
    def record_compute_spans(self, result) -> None:
        """Emit one compute span per :class:`TimelineSpan` of a
        :class:`~repro.core.scheduler.ScheduleResult` (duck-typed to
        avoid a core<->telemetry import cycle)."""
        for span in result.spans:
            self.span(f"target {span.target_index}", unit_track(span.unit),
                      span.start, span.end, CAT_COMPUTE)

    def finalize_unit_cycles(self, result) -> None:
        """Derive busy/idle/stall counters from a schedule's timeline.

        ``busy`` is the summed occupancy of every span on the unit;
        ``idle`` its complement against the makespan; ``stall`` the
        inter-dispatch gaps (channel serialization / sync barrier),
        which excludes ramp-in before the first dispatch and drain-out
        after the last. Every span is one completed target. Every
        scheduled unit gets a block even if no target ever reached it
        (all idle).
        """
        makespan = result.makespan
        per_unit: dict = {u: [] for u in range(result.num_units)}
        for span in result.spans:
            per_unit.setdefault(span.unit, []).append(span)
        for unit_id, spans in sorted(per_unit.items()):
            block = self.unit(unit_id)
            spans.sort(key=lambda s: (s.start, s.end))
            busy = sum(s.duration for s in spans)
            stall = 0
            for prev, nxt in zip(spans, spans[1:]):
                stall += max(0, nxt.start - prev.end)
            block.busy_cycles += busy
            block.idle_cycles += makespan - busy
            block.stall_cycles += stall
            block.targets_completed += len(spans)

    # -- views ----------------------------------------------------------
    def spans_in(self, *categories: str) -> List[TraceSpan]:
        wanted = set(categories)
        return [s for s in self.spans if s.category in wanted]

    @property
    def makespan_ticks(self) -> int:
        return max((s.end for s in self.spans), default=0)
