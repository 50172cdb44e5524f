"""First-class metrics derived from a telemetry session.

The raw artifacts are spans and counters; the questions the paper's
evaluation asks (Figure 7: how much of the sea idles under each
scheduling scheme? Section V: how small is the transfer share?) are
*derived* quantities. This module computes them once, from the same
records the exporter writes, so the CLI, the experiments, and the
tests all quote one set of numbers:

- **unit occupancy** -- busy/makespan per unit and its mean, the
  quantitative form of Figure 7's utilization gap;
- **transfer-channel utilization** -- the share of the makespan the
  serialized PCIe channel was occupied (the paper's "only 0.01% of the
  total runtime" claim at full scale);
- **critical path** -- the longest zero-slack chain of spans ending at
  the makespan: each link's start coincides with the previous link's
  end (dispatch follows transfer, or back-to-back occupancy of one
  resource), so the chain is the sequence of events that actually
  gated the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.telemetry.spans import (
    CAT_COMPUTE,
    CAT_TRANSFER,
    Telemetry,
    TraceSpan,
)


@dataclass(frozen=True)
class ScheduleMetrics:
    """Derived performance metrics for one scheduled run."""

    makespan_ticks: int
    unit_occupancy: Dict[int, float]
    mean_occupancy: float
    channel_utilization: float
    critical_path_ticks: int
    critical_path_spans: int

    def describe(self) -> str:
        occ = ", ".join(
            f"u{unit}={occupancy:.0%}"
            for unit, occupancy in sorted(self.unit_occupancy.items())
        )
        return (
            f"makespan {self.makespan_ticks} ticks; "
            f"mean occupancy {self.mean_occupancy:.1%} ({occ}); "
            f"channel utilization {self.channel_utilization:.1%}; "
            f"critical path {self.critical_path_ticks} ticks over "
            f"{self.critical_path_spans} spans"
        )


def _critical_path(spans: List[TraceSpan], makespan: int) -> List[TraceSpan]:
    """Longest zero-slack chain ending at the makespan.

    Greedy backward walk: start from the span that ends last; its
    predecessor is any span whose end equals the current span's start
    (ties prefer the longest predecessor, which maximizes the chain's
    accounted cycles). Spans of zero duration cannot anchor the walk,
    and no span joins the chain twice: two zero-duration spans at one
    tick are each other's predecessor, and the walk would never end.
    """
    if not spans or makespan == 0:
        return []
    by_end: Dict[int, List[TraceSpan]] = {}
    for span in spans:
        by_end.setdefault(span.end, []).append(span)
    current = max(spans, key=lambda s: (s.end, s.duration))
    chain = [current]
    used = {id(current)}
    while True:
        candidates = [s for s in by_end.get(chain[-1].start, [])
                      if id(s) not in used]
        if not candidates:
            break
        chain.append(max(candidates, key=lambda s: s.duration))
        used.add(id(chain[-1]))
    chain.reverse()
    return chain


def derive_schedule_metrics(telemetry: Telemetry) -> ScheduleMetrics:
    """Compute :class:`ScheduleMetrics` from a recorded session."""
    work_spans = telemetry.spans_in(CAT_COMPUTE)
    transfer_spans = telemetry.spans_in(CAT_TRANSFER)
    makespan = telemetry.makespan_ticks

    occupancy: Dict[int, float] = {}
    total_busy = 0
    real_units = [
        block for block in telemetry.counters.iter_units()
        if block.unit >= 0
    ]
    for block in real_units:
        occupancy[block.unit] = block.occupancy
        total_busy += block.busy_cycles
    if real_units and makespan > 0:
        mean_occupancy = total_busy / (len(real_units) * makespan)
    else:
        mean_occupancy = 0.0

    transfer_busy = sum(span.duration for span in transfer_spans)
    channel_utilization = transfer_busy / makespan if makespan else 0.0

    chain = _critical_path(work_spans + transfer_spans, makespan)
    return ScheduleMetrics(
        makespan_ticks=makespan,
        unit_occupancy=occupancy,
        mean_occupancy=mean_occupancy,
        channel_utilization=channel_utilization,
        critical_path_ticks=sum(span.duration for span in chain),
        critical_path_spans=len(chain),
    )
