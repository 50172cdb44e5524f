"""The streaming data plane: overlapped dispatch, incremental merge.

:class:`repro.engine.parallel.Engine` submits every chunk up front, so
peak memory scales with the *whole* site list's payloads and results.
The paper's system keeps its 32 units saturated by overlapping host DMA
with on-chip compute; :class:`StreamingEngine` is the software mirror of
that dataflow -- the same dispatch loop
(:meth:`~repro.engine.parallel.Engine.stream_sites`) under two different
policies:

- **bounded in-flight window.** At most ``queue_depth x workers``
  chunks are in flight or parked in the reorder buffer; the next chunk
  is submitted only when a slot truly frees (backpressure), so peak
  memory is the window, not the chromosome.
- **zero-copy dispatch.** Each submitted chunk's sequences travel
  through a shared-memory arena (:mod:`repro.engine.shmem`); the task
  pipe carries a descriptor of a few hundred bytes. ``use_shmem=False``
  (or a platform without ``multiprocessing.shared_memory``) falls back
  to carrying the packed bytes inline -- same semantics, one pickle
  copy more.

The chunk boundaries, kernel, pool and in-order merge are exactly the
barrier engine's, so the realigned SAM downstream is byte-identical to
the serial kernel; what changes is that the first results emerge while
later chunks have not even been packed.

Telemetry (all optional, zero overhead when off): ``CAT_STREAM`` spans
-- one per chunk, overlapping across workers -- plus
``stream.chunks`` / ``stream.arena_bytes`` / ``stream.max_in_flight`` /
``stream.reorder_peak`` / ``stream.backpressure_us`` counters
(see docs/TELEMETRY.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.parallel import Engine, EngineConfig
from repro.engine.shmem import (
    HAVE_SHARED_MEMORY,
    drain_lifecycle_counters,
    ensure_resource_tracker,
    pack_chunk,
)
from repro.realign.site import RealignmentSite
from repro.telemetry.spans import CAT_STREAM


class StreamingEngine(Engine):
    """Engine with a bounded in-flight window and shared-memory dispatch.

    Drop-in for :class:`~repro.engine.parallel.Engine` everywhere an
    engine is accepted (``IndelRealigner``, ``AcceleratedRealigner``,
    the CLI): results are byte-identical at any worker count, queue
    depth, or shmem setting.

    ``queue_depth`` is the number of in-flight chunks *per worker*; 2
    (the default) keeps every worker one chunk ahead -- enough to hide
    dispatch latency, small enough to bound memory and let
    work-stealing balance the tail.
    """

    _timeline = (CAT_STREAM, "stream chunk", "chunk")

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        queue_depth: int = 2,
        use_shmem: bool = True,
        recovery=None,
        cache=None,
    ):
        super().__init__(config, recovery=recovery, cache=cache)
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.queue_depth = queue_depth
        self.use_shmem = bool(use_shmem) and HAVE_SHARED_MEMORY
        self._window = queue_depth * self.config.workers

    def _reset(self) -> None:
        super()._reset()
        #: Stream-plane observations from the latest run.
        self.stream_stats: Dict[str, int] = {}

    def _pack(self, chunk_id: int, chunk: List[RealignmentSite]):
        return pack_chunk(chunk_id, chunk, use_shmem=self.use_shmem)

    def _ensure_rpool(self):
        if self.use_shmem:
            # Must happen before the pool forks: workers inherit the
            # parent's resource tracker instead of spawning their own
            # (see shmem.ensure_resource_tracker).
            ensure_resource_tracker()
        return super()._ensure_rpool()

    def _finish(self, telemetry, run_start: float,
                observed: Dict[str, int]) -> None:
        self.stream_stats = {
            "stream.chunks": len(self.shard_stats),
            "stream.queue_depth": self.queue_depth,
            "stream.max_in_flight": observed["in_flight_peak"],
            "stream.reorder_peak": observed["reorder_peak"],
            "stream.backpressure_us": observed["backpressure_us"],
            "stream.arena_bytes": observed["arena_bytes"],
            # Chunks whose arena outlived a crashed or hung worker.
            "stream.arena_recovered": sum(
                1 for stat in self.shard_stats
                if stat.counters.get("worker.chunks_recovered")
            ),
            "stream.shmem": int(self.use_shmem),
        }
        if telemetry is not None:
            for name, value in self.stream_stats.items():
                telemetry.count(name, value)
            for name, value in drain_lifecycle_counters().items():
                telemetry.count(name, value)
        super()._finish(telemetry, run_start, observed)


__all__ = ["StreamingEngine"]
