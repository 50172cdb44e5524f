"""Telemetry exporters: Chrome ``trace_event`` JSON and flat counters.

The span timeline exports to the Chrome trace-event format (the JSON
array flavour wrapped in a ``traceEvents`` object), which Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` open directly: one
"thread" per track (IR units, the PCIe channel, engine shards) and one
complete ``X`` event per span.

Timestamps convert from the recorder's timebase to microseconds; a
session with no declared timebase exports 1 tick = 1 us (the cycle
timeline then reads directly in cycles).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.telemetry.counters import CHANNEL_UNIT
from repro.telemetry.spans import Telemetry, unit_track

#: Synthetic process id for the single-process trace.
TRACE_PID = 1

#: Minimum exported span duration in microseconds. Chrome/Perfetto drop
#: zero-width complete events from the render entirely, so a span whose
#: ticks round to zero (e.g. a sub-cycle stream chunk on a coarse
#: timebase) would silently vanish from the timeline; a 1 us sliver
#: keeps it visible and clickable.
MIN_SPAN_DURATION_US = 1.0


def _track_order(track: str) -> Tuple[int, int, str]:
    """Stable display order: the channel, units ascending, then every
    other track (engine shards) by its trailing number, then name."""
    if track == "pcie-channel":
        return (0, 0, track)
    kind, _, number = track.rpartition(" ")
    index = int(number) if number.isdigit() else -1
    return (1 if kind == "unit" else 2, index, track)


def _tid_map(telemetry: Telemetry) -> Dict[str, int]:
    tracks = {span.track for span in telemetry.spans}
    tracks.update(
        unit_track(block.unit) for block in telemetry.counters.iter_units()
    )
    ordered = sorted(tracks, key=_track_order)
    return {track: tid for tid, track in enumerate(ordered, start=1)}


def _session_events(telemetry: Telemetry, pid: int) -> List[Dict]:
    """All trace events for one session, tagged with ``pid``."""
    ticks_per_second = telemetry.ticks_per_second or 1e6
    us_per_tick = 1e6 / ticks_per_second
    tids = _tid_map(telemetry)
    events: List[Dict] = [
        {
            "ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": telemetry.label},
        },
        {
            "ph": "M", "pid": pid, "name": "process_sort_index",
            "args": {"sort_index": pid},
        },
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({
            "ph": "M", "pid": pid, "tid": tid,
            "name": "thread_name", "args": {"name": track},
        })
        events.append({
            "ph": "M", "pid": pid, "tid": tid,
            "name": "thread_sort_index",
            "args": {"sort_index": tid},
        })
    for span in telemetry.spans:
        events.append({
            "ph": "X",
            "pid": pid,
            "tid": tids[span.track],
            "name": span.name,
            "cat": span.category or "span",
            "ts": span.start * us_per_tick,
            "dur": max(span.duration * us_per_tick, MIN_SPAN_DURATION_US),
            "args": dict(span.args),
        })
    return events


def to_chrome_trace(
    telemetry: Union[Telemetry, Sequence[Telemetry]],
) -> Dict:
    """Render one session -- or several, as separate trace "processes"
    keyed by their labels -- as a Chrome trace-event JSON object."""
    sessions = ([telemetry] if isinstance(telemetry, Telemetry)
                else list(telemetry))
    if not sessions:
        raise ValueError("need at least one telemetry session to export")
    events: List[Dict] = []
    counters: Dict[str, Dict[str, int]] = {}
    for offset, session in enumerate(sessions):
        events.extend(_session_events(session, TRACE_PID + offset))
        key = session.label
        if key in counters:  # duplicate labels stay distinguishable
            key = f"{key}#{offset}"
        counters[key] = session.counters.flat()
    other: Dict = {
        "counters": counters[sessions[0].label]
        if len(sessions) == 1 else counters,
        "ticks_per_second": sessions[0].ticks_per_second or 1e6,
    }
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(telemetry: Union[Telemetry, Sequence[Telemetry]],
                       path: Union[str, Path]) -> Path:
    """Write the Perfetto-loadable trace file; returns its path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(telemetry), indent=1))
    return path


__all__ = [
    "CHANNEL_UNIT",
    "MIN_SPAN_DURATION_US",
    "TRACE_PID",
    "to_chrome_trace",
    "write_chrome_trace",
]
