"""Zero-overhead-when-disabled instrumentation for the accelerated IR
system: per-unit performance counters, span tracing, derived metrics,
and Chrome trace_event / flat-dict exporters.

Usage::

    from repro.telemetry import Telemetry
    from repro.telemetry.export import write_chrome_trace
    from repro.telemetry.metrics import derive_schedule_metrics

    telemetry = Telemetry(ticks_per_second=config.clock.frequency_hz)
    system.run(sites, telemetry=telemetry)
    print(derive_schedule_metrics(telemetry).describe())
    write_chrome_trace(telemetry, "trace.json")  # open in Perfetto

Every instrumented hot path takes ``telemetry=None`` by default and
guards each event site with a single ``is not None`` check -- with
telemetry off there is no recorder and no allocation; with it on, the
cost stays small (gated by ``benchmarks/bench_telemetry.py``) and
functional outputs are byte-identical (pinned by property tests).

See ``docs/TELEMETRY.md`` for counter definitions and the span schema.
"""

from repro.telemetry.counters import (
    CHANNEL_UNIT,
    CounterBoard,
    UnitCounters,
)
from repro.telemetry.export import (
    to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.metrics import ScheduleMetrics, derive_schedule_metrics
from repro.telemetry.spans import (
    CAT_COMPUTE,
    CAT_ENGINE,
    CAT_FLEET,
    CAT_TRANSFER,
    Telemetry,
    TraceSpan,
    unit_track,
)

__all__ = [
    "CAT_COMPUTE",
    "CAT_ENGINE",
    "CAT_FLEET",
    "CAT_TRANSFER",
    "CHANNEL_UNIT",
    "CounterBoard",
    "ScheduleMetrics",
    "Telemetry",
    "TraceSpan",
    "UnitCounters",
    "derive_schedule_metrics",
    "to_chrome_trace",
    "unit_track",
    "write_chrome_trace",
]
