"""The streaming data plane: the one dispatch loop at a bounded window.

:class:`repro.engine.parallel.Engine` submits every chunk up front, so
peak memory scales with the *whole* site list's payloads and results.
:class:`StreamingEngine` is the same loop
(:meth:`~repro.engine.parallel.Engine.stream_sites`) with at most
``queue_depth x workers`` chunks in flight or parked in the reorder
buffer: the next chunk is submitted only when a slot truly frees
(backpressure), so peak memory is the window, not the chromosome, and
the first results emerge before later chunks have been submitted.

Chunk boundaries, payload, kernel, pool, recovery and in-order merge
are the barrier engine's, so the realigned SAM downstream is
byte-identical to the serial kernel. What the window adds is
observable (zero overhead when telemetry is off): one ``CAT_STREAM``
span per chunk, overlapping across workers, and the ``stream.chunks``
/ ``stream.queue_depth`` / ``stream.max_in_flight`` /
``stream.reorder_peak`` / ``stream.backpressure_us`` counters
(docs/TELEMETRY.md).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.parallel import Engine, EngineConfig
from repro.telemetry.spans import CAT_STREAM


class StreamingEngine(Engine):
    """Engine with a bounded in-flight window.

    Drop-in for :class:`~repro.engine.parallel.Engine` everywhere an
    engine is accepted (``IndelRealigner``, ``AcceleratedRealigner``,
    the CLI): results are byte-identical at any worker count or queue
    depth.

    ``queue_depth`` is the number of in-flight chunks *per worker*; 2
    (the default) keeps every worker one chunk ahead -- enough to hide
    dispatch latency, small enough to bound memory and let
    work-stealing balance the tail.
    """

    _timeline = (CAT_STREAM, "stream chunk", "chunk")

    def __init__(self, config: Optional[EngineConfig] = None,
                 queue_depth: int = 2, recovery=None, cache=None):
        super().__init__(config, recovery=recovery, cache=cache)
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.queue_depth = queue_depth
        self._window = queue_depth * self.config.workers

    def _reset(self) -> None:
        super()._reset()
        #: Stream-plane observations from the latest run.
        self.stream_stats: Dict[str, int] = {}

    def _finish(self, telemetry, run_start: float,
                observed: Dict[str, int]) -> None:
        self.stream_stats = {
            "stream.chunks": len(self.shard_stats),
            "stream.queue_depth": self.queue_depth,
            "stream.max_in_flight": observed["in_flight_peak"],
            "stream.reorder_peak": observed["reorder_peak"],
            "stream.backpressure_us": observed["backpressure_us"],
        }
        if telemetry is not None:
            for name, value in self.stream_stats.items():
                telemetry.count(name, value)
        super()._finish(telemetry, run_start, observed)


__all__ = ["StreamingEngine"]
