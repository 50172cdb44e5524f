"""Per-IR-unit performance counters.

The paper reports only end-to-end totals (Table 2's runtimes, Figure
7's qualitative utilization gap); production accelerator stacks expose
*where cycles go* as first-class hardware counters. This module is that
counter file: one :class:`UnitCounters` block per IR unit -- busy /
idle / stall cycles, targets completed, WHD cells evaluated and pruned
-- plus the special track for the PCIe transfer channel.

Counter semantics (all in unit-clock cycles unless noted):

- ``busy_cycles``: cycles the unit held a dispatched target.
- ``idle_cycles``: ``makespan - busy_cycles``; the complement, so
  ``busy + idle == makespan`` is an invariant pinned by property tests.
- ``stall_cycles``: the subset of idle time spent *between* dispatches
  (waiting on the serialized transfer channel or the synchronous flush
  barrier); the remainder of idle is ramp-in before the first target
  and drain-out after the last. ``stall <= idle`` always.
- ``targets_completed``: dispatches that produced a completion response.
- ``whd_cells_evaluated``: base-pair comparisons the HDC actually
  performed (post-pruning).
- ``whd_cells_pruned``: comparisons computation pruning eliminated
  (``unpruned - evaluated``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator

#: Pseudo-unit id for the serialized PCIe transfer channel.
CHANNEL_UNIT = -2


@dataclass
class UnitCounters:
    """One IR unit's performance-counter block."""

    unit: int
    busy_cycles: int = 0
    idle_cycles: int = 0
    stall_cycles: int = 0
    targets_completed: int = 0
    whd_cells_evaluated: int = 0
    whd_cells_pruned: int = 0

    @property
    def total_cycles(self) -> int:
        return self.busy_cycles + self.idle_cycles

    @property
    def occupancy(self) -> float:
        """Fraction of the run this unit spent computing (in [0, 1])."""
        if self.total_cycles == 0:
            return 0.0
        return self.busy_cycles / self.total_cycles

    @property
    def pruned_fraction(self) -> float:
        total = self.whd_cells_evaluated + self.whd_cells_pruned
        if total == 0:
            return 0.0
        return self.whd_cells_pruned / total

    def as_dict(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in fields(self):
            if f.name == "unit":
                continue
            out[f.name] = int(getattr(self, f.name))
        return out


class CounterBoard:
    """The run's counter file: named scalars plus per-unit blocks.

    Scalar counters are namespaced strings (``"mmio.responses_polled"``,
    ``"dma.bytes_transferred"``, ...); per-unit blocks are created on
    first touch so the board never needs to know the sea's width in
    advance.
    """

    def __init__(self) -> None:
        self.scalars: Dict[str, int] = {}
        self.units: Dict[int, UnitCounters] = {}

    def add(self, name: str, delta: int = 1) -> None:
        self.scalars[name] = self.scalars.get(name, 0) + delta

    def get(self, name: str) -> int:
        return self.scalars.get(name, 0)

    def unit(self, unit_id: int) -> UnitCounters:
        block = self.units.get(unit_id)
        if block is None:
            block = UnitCounters(unit=unit_id)
            self.units[unit_id] = block
        return block

    def iter_units(self) -> Iterator[UnitCounters]:
        for unit_id in sorted(self.units):
            yield self.units[unit_id]

    def flat(self) -> Dict[str, int]:
        """Everything as one flat ``name -> value`` dict.

        Per-unit counters flatten to ``unit{N}.{field}``; the channel
        pseudo-unit flattens to ``channel.*``.
        """
        out = dict(sorted(self.scalars.items()))
        for block in self.iter_units():
            if block.unit == CHANNEL_UNIT:
                prefix = "channel"
            else:
                prefix = f"unit{block.unit}"
            for key, value in block.as_dict().items():
                out[f"{prefix}.{key}"] = value
        return out
