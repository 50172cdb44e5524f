"""Horizontal shard plane: contig/region-hash dispatch over N workers.

The paper's cloud argument is fleet-level -- INDEL realignment scales
by adding accelerator-backed instances behind a partitioner, not by
making one instance infinitely fast. :class:`ShardPlane` is that
partitioner for the host software plane: realignment sites are routed
by a **stable contig/region hash** (:func:`shard_for`) to N long-lived
shard workers (processes today, any :class:`~repro.shard.transport
.ShardTransport` tomorrow), each running the same exact chunk path as
the barrier/streaming engines.

Determinism: results are merged by *original site index*, so output is
byte-identical to the serial path at any shard count, under any
work-stealing/straggler/retry schedule, and in any cache state (the
golden matrix and ``tests/test_shard_properties.py`` pin this).

Scheduling policy, in dispatch-priority order per idle shard:

1. its own home queue (region-hash locality),
2. **steal** from the tail of the longest other home queue (the same
   idle-worker stealing the engines' shared pool queue gives them),
3. **straggler re-steal**: once every queue is empty, a chunk in
   flight longer than ``max(straggler_min_s, straggler_factor x p95)``
   of recently completed chunk walls is dispatched *again* on the idle
   shard -- first result wins, the duplicate is discarded on arrival
   (all kernels are exact, so either copy is the answer).

Resilience mirrors PR 6's unit quarantine, one level up: a dead or
hung worker (SIGKILL, wedge past the chunk deadline) is killed and
respawned and its chunk retried on another shard; a shard failing
``quarantine_after`` times is quarantined for the run; a chunk
exhausting ``max_attempts`` is *quarantined to the inline path* --
realigned in the parent, exactly -- so forward progress never depends
on any worker surviving. Chaos arrives through the same seeded
:class:`~repro.resilience.workers.WorkerFaultPlan` machinery
(``REPRO_WORKER_FAULT_RATE`` et al. reach shard workers unchanged).

Everything is observable: ``shard.*`` counters (dispatches, steals,
re-steals, retries, respawns, quarantines, per-shard chunk/site/busy
tallies) fold into the shared counter fabric, and every completed
chunk becomes a ``CAT_SHARD`` span on its executing shard's track
(:func:`repro.perf.fleet.record_shard_chunks`), so a Chrome trace
shows the shards overlapping next to the engine/stream/recovery
timelines.

An optional :class:`~repro.shard.cache.SiteResultCache` short-circuits
whole sites before partitioning -- the content-addressed layer that
makes duplicate-heavy multi-tenant traffic cheap (docs/SHARDING.md).
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.parallel import (
    EngineConfig,
    ShardStats,
    _realign_chunk,
)
from repro.realign.site import RealignmentSite
from repro.realign.whd import SiteResult
from repro.shard.cache import SiteResultCache, lookup_sites
from repro.shard.transport import (
    PipeShardTransport,
    ShardTransport,
    ShardTransportError,
    wait_ready,
)

#: Default width of one partition region, in reference bases. Matches
#: the order of the serving plane's region-job gap
#: (:data:`repro.serve.jobs.DEFAULT_REGION_GAP`): sites within one
#: locality window share a home shard, distinct windows spread.
DEFAULT_REGION_SPAN = 4096

#: The executing-"shard" id recorded for chunks quarantined inline.
INLINE_SHARD = -1


def shard_for(chrom: str, start: int, shards: int,
              region_span: int = DEFAULT_REGION_SPAN) -> int:
    """Stable home shard of a site: hash of its contig/region bucket.

    The hash is a Fowler-Noll-Vo fold of ``"{chrom}:{start //
    region_span}"`` -- deterministic across processes and Python
    invocations (no ``PYTHONHASHSEED`` dependence), so a region always
    lands on the same shard and a re-submitted cohort job reuses
    whatever per-shard locality (page cache, branch history) its first
    submission warmed.

    >>> shard_for("22", 10_000, 4) == shard_for("22", 10_000, 4)
    True
    >>> all(0 <= shard_for("22", s, 3) < 3 for s in range(0, 100_000, 977))
    True
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    key = f"{chrom}:{start // region_span}".encode()
    digest = 0xCBF29CE484222325  # FNV-1a 64-bit offset basis
    for byte in key:
        digest ^= byte
        digest = (digest * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest % shards


@dataclass(frozen=True)
class ShardPlaneConfig:
    """Tuning knobs of the shard dispatch loop.

    ``straggler_factor`` scales the p95 of recently completed chunk
    wall times into the re-steal watermark; ``straggler_min_s`` floors
    it so tiny chunks cannot trigger duplicate dispatch on scheduler
    jitter. ``max_attempts`` bounds per-chunk dispatches before the
    chunk is quarantined to the inline path; ``quarantine_after``
    bounds per-shard failures before the shard is retired for the run.

    >>> ShardPlaneConfig(shards=0)
    Traceback (most recent call last):
        ...
    ValueError: shards must be >= 1, got 0
    """

    shards: int = 2
    region_span: int = DEFAULT_REGION_SPAN
    straggler_factor: float = 4.0
    straggler_min_s: float = 0.25
    max_attempts: int = 4
    quarantine_after: int = 3
    poll_tick: float = 0.02

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.region_span < 1:
            raise ValueError("region_span must be >= 1")
        if self.straggler_factor <= 0 or self.straggler_min_s <= 0:
            raise ValueError("straggler watermark terms must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.poll_tick <= 0:
            raise ValueError("poll_tick must be positive")


@dataclass
class ShardChunk:
    """One dispatchable unit: a batch of sites with their input indices."""

    chunk_id: int
    home: int
    indices: List[int]
    sites: List[RealignmentSite]


class _InFlight:
    """Book-keeping for one dispatched chunk on one shard."""

    __slots__ = ("chunk", "since", "attempt")

    def __init__(self, chunk: ShardChunk, since: float, attempt: int):
        self.chunk = chunk
        self.since = since
        self.attempt = attempt


class ShardPlane:
    """Engine-compatible horizontal dispatch across N shard workers.

    Drop-in wherever an engine goes (``run_sites(sites, telemetry=)``
    plus ``close()``): :class:`~repro.realign.realigner.IndelRealigner`
    ``engine=``, :class:`~repro.serve.service.RealignmentService`, the
    CLI's ``--shards``. ``shards=1`` runs chunks inline in the parent
    (no processes), the deterministic baseline the scaling bench and
    the golden matrix compare against.

    ``recovery`` defaults to the environment's
    (:meth:`~repro.resilience.workers.WorkerRecovery.from_env`) so CI
    chaos reruns reach the shard plane with no plumbing; its fault
    plan rides into every worker and its ``chunk_deadline`` arms the
    hung-shard watchdog.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        shards: Optional[int] = None,
        plane: Optional[ShardPlaneConfig] = None,
        cache: Optional[SiteResultCache] = None,
        recovery=None,
        transport_factory=None,
    ):
        from repro.resilience.workers import WorkerRecovery

        self.config = config if config is not None else EngineConfig()
        if plane is None:
            plane = ShardPlaneConfig(
                shards=shards if shards is not None else 2
            )
        elif shards is not None and shards != plane.shards:
            raise ValueError(
                f"shards={shards} contradicts plane.shards={plane.shards}"
            )
        self.plane = plane
        self.cache = cache
        self.recovery = (recovery if recovery is not None
                         else WorkerRecovery.from_env())
        self._factory = transport_factory
        self._transports: Dict[int, Optional[ShardTransport]] = {}
        self._spawned_once: set = set()
        #: Latest run's chunk records (executing shard, timestamps).
        self.shard_stats: List[ShardStats] = []
        #: Latest run's ``shard.*`` counters; the serving plane folds
        #: these per dispatch exactly like engine recovery counters.
        self.recovery_counters: Dict[str, int] = {}
        self._occupancy: Dict[str, float] = {}
        #: Completed chunk wall times feeding the straggler watermark.
        self._durations: deque = deque(maxlen=256)

    # -- partitioning ---------------------------------------------------
    def _partition(
        self, entries: List[Tuple[int, RealignmentSite]]
    ) -> List[ShardChunk]:
        """Group by home shard, then chunk by ``config.batch``.

        Within a shard, sites keep input order; chunk ids are assigned
        shard-major. Neither ordering is visible in the output (the
        merge is by original index) -- it only shapes locality.
        """
        per_shard: "OrderedDict[int, List[Tuple[int, RealignmentSite]]]" = (
            OrderedDict()
        )
        for index, site in entries:
            home = shard_for(site.chrom, site.start, self.plane.shards,
                             self.plane.region_span)
            per_shard.setdefault(home, []).append((index, site))
        chunks: List[ShardChunk] = []
        for home in sorted(per_shard):
            bucket = per_shard[home]
            for lo in range(0, len(bucket), self.config.batch):
                part = bucket[lo:lo + self.config.batch]
                chunks.append(ShardChunk(
                    chunk_id=len(chunks),
                    home=home,
                    indices=[index for index, _ in part],
                    sites=[site for _, site in part],
                ))
        return chunks

    # -- the public engine surface --------------------------------------
    def run_sites(
        self,
        sites: Sequence[RealignmentSite],
        telemetry=None,
    ) -> List[SiteResult]:
        """Realign ``sites``; results align index-for-index with input."""
        from repro.perf.fleet import record_shard_chunks

        sites = list(sites)
        self.shard_stats = []
        self.recovery_counters = {}
        if not sites:
            return []
        run_start = time.perf_counter()
        counters: Dict[str, int] = {}

        def count(name: str, delta: int = 1) -> None:
            counters[name] = counters.get(name, 0) + delta

        results, miss_indices, keys = lookup_sites(self.cache, sites,
                                                   self.config)
        if self.cache is not None:
            count("shard.cache_hits", len(sites) - len(miss_indices))
            count("shard.cache_misses", len(miss_indices))
        chunks = self._partition([(i, sites[i]) for i in miss_indices])
        busy: Dict[int, float] = {}
        if chunks:
            if self.plane.shards == 1:
                outcomes = {}
                for chunk in chunks:
                    cid, chunk_results, start, end, worker_counters = (
                        _realign_chunk(chunk.chunk_id, chunk.sites,
                                       self.config)
                    )
                    outcomes[cid] = (chunk_results, start, end,
                                     worker_counters, 0)
                    busy[0] = busy.get(0, 0.0) + (end - start)
                    count("shard.completed_chunks")
                    count("shard.sites", len(chunk.sites))
            else:
                outcomes = self._dispatch(chunks, count, busy)
            stats: List[ShardStats] = []
            for chunk in chunks:
                chunk_results, start, end, worker_counters, executor = (
                    outcomes[chunk.chunk_id]
                )
                for index, result in zip(chunk.indices, chunk_results):
                    results[index] = result
                    if self.cache is not None:
                        self.cache.put(keys[index], sites[index].start,
                                       result)
                stats.append(ShardStats(
                    shard=executor, sites=len(chunk.sites),
                    start=start, end=end, counters=worker_counters,
                ))
                for name, value in worker_counters.items():
                    count(name, value)
                count(f"shard.{max(executor, 0)}.chunks"
                      if executor != INLINE_SHARD else "shard.inline.chunks")
                count(f"shard.{max(executor, 0)}.sites"
                      if executor != INLINE_SHARD else "shard.inline.sites",
                      len(chunk.sites))
            self.shard_stats = stats
        wall = max(time.perf_counter() - run_start, 1e-9)
        self._occupancy = {
            f"shard{shard}": min(seconds / wall, 1.0)
            for shard, seconds in sorted(busy.items())
        }
        for shard, seconds in sorted(busy.items()):
            count(f"shard.{shard}.busy_us", int(seconds * 1e6))
        self.recovery_counters = dict(counters)
        if telemetry is not None:
            for name, value in counters.items():
                telemetry.count(name, value)
            record_shard_chunks(
                telemetry,
                [(stat.shard, chunk.chunk_id, stat.sites, stat.start,
                  stat.end)
                 for chunk, stat in zip(chunks, self.shard_stats)],
                origin=run_start,
            )
        return results

    # -- the dispatch loop ----------------------------------------------
    def _dispatch(self, chunks, count, busy):
        """Multi-shard dispatch: steal, re-steal, retry, quarantine."""
        queues: Dict[int, deque] = {
            shard: deque() for shard in range(self.plane.shards)
        }
        for chunk in chunks:
            queues[chunk.home].append(chunk)
        outcomes: Dict[int, tuple] = {}
        inflight: Dict[int, _InFlight] = {}
        attempts: Dict[int, int] = {}
        failures: Dict[int, int] = {}
        running: Dict[int, set] = {chunk.chunk_id: set() for chunk in chunks}
        quarantined: set = set()

        def note_busy(shard: int, inf: _InFlight, now: float) -> None:
            busy[shard] = busy.get(shard, 0.0) + (now - inf.since)

        def queued_ids() -> set:
            return {chunk.chunk_id for queue in queues.values()
                    for chunk in queue}

        def requeue(chunk: ShardChunk) -> None:
            """Retry elsewhere, or quarantine the chunk inline."""
            if chunk.chunk_id in outcomes:
                return
            if attempts.get(chunk.chunk_id, 0) >= self.plane.max_attempts:
                self._run_inline(chunk, outcomes, count)
                return
            healthy = [shard for shard in queues if shard not in quarantined]
            if not healthy:
                self._run_inline(chunk, outcomes, count)
                return
            target = (chunk.home if chunk.home in healthy
                      else min(healthy, key=lambda s: len(queues[s])))
            queues[target].appendleft(chunk)
            count("shard.retries")

        def quarantine(shard: int) -> None:
            if shard in quarantined:
                return
            quarantined.add(shard)
            count("shard.quarantined")
            transport = self._transports.get(shard)
            if transport is not None:
                transport.kill()
                self._transports[shard] = None

        def on_death(shard: int, now: float, expired: bool = False) -> None:
            inf = inflight.pop(shard, None)
            transport = self._transports.get(shard)
            if transport is not None:
                transport.kill()
                self._transports[shard] = None
            count("shard.worker_deaths")
            if expired:
                count("shard.deadline_expired")
            failures[shard] = failures.get(shard, 0) + 1
            if failures[shard] >= self.plane.quarantine_after:
                quarantine(shard)
            if inf is None:
                return
            note_busy(shard, inf, now)
            cid = inf.chunk.chunk_id
            running[cid].discard(shard)
            if cid not in outcomes and not running[cid] \
                    and cid not in queued_ids():
                requeue(inf.chunk)

        peak_depth = 0
        while len(outcomes) < len(chunks):
            peak_depth = max(
                peak_depth,
                sum(len(queue) for queue in queues.values()) + len(inflight),
            )
            self._feed(queues, inflight, outcomes, attempts, running,
                       quarantined, requeue, count)
            if not inflight:
                # Nothing dispatchable and nothing in flight: every
                # shard is quarantined/dead. Drain inline -- forward
                # progress must never depend on a worker surviving.
                for chunk in chunks:
                    if chunk.chunk_id not in outcomes:
                        self._run_inline(chunk, outcomes, count)
                break
            ready = wait_ready(
                [self._transports[shard] for shard in inflight
                 if self._transports.get(shard) is not None],
                self.plane.poll_tick,
            )
            now = time.perf_counter()
            by_transport = {
                id(self._transports[shard]): shard for shard in inflight
                if self._transports.get(shard) is not None
            }
            for transport in ready:
                shard = by_transport.get(id(transport))
                if shard is None:
                    continue
                try:
                    message = transport.recv()
                except (EOFError, OSError):
                    on_death(shard, now)
                    continue
                self._on_message(shard, message, inflight, outcomes,
                                 running, failures, quarantine, requeue,
                                 note_busy, count, now)
            now = time.perf_counter()
            for shard, inf in list(inflight.items()):
                if now - inf.since > self.recovery.chunk_deadline:
                    on_death(shard, now, expired=True)
                elif not self._transport_alive(shard):
                    on_death(shard, now)
        count("shard.queue_depth_peak", peak_depth)
        return outcomes

    def _feed(self, queues, inflight, outcomes, attempts, running,
              quarantined, requeue, count) -> None:
        """Hand one chunk to every idle healthy shard."""
        for shard in range(self.plane.shards):
            if shard in quarantined or shard in inflight:
                continue
            chunk = None
            if queues[shard]:
                chunk = queues[shard].popleft()
            else:
                donor = max(
                    (other for other in queues if queues[other]),
                    key=lambda other: len(queues[other]),
                    default=None,
                )
                if donor is not None:
                    chunk = queues[donor].pop()
                    count("shard.steals")
                else:
                    chunk = self._straggler_candidate(inflight, running,
                                                      outcomes)
                    if chunk is not None:
                        count("shard.resteals")
            if chunk is None:
                continue
            transport = self._ensure_transport(shard, count)
            if transport is None:
                quarantined.add(shard)
                count("shard.quarantined")
                if not running[chunk.chunk_id]:
                    requeue(chunk)
                continue
            attempt = attempts.get(chunk.chunk_id, 0)
            attempts[chunk.chunk_id] = attempt + 1
            try:
                transport.send(("chunk", chunk.chunk_id, attempt,
                                chunk.sites))
            except ShardTransportError:
                transport.kill()
                self._transports[shard] = None
                count("shard.worker_deaths")
                if not running[chunk.chunk_id]:
                    requeue(chunk)
                continue
            inflight[shard] = _InFlight(chunk, time.perf_counter(), attempt)
            running[chunk.chunk_id].add(shard)
            count("shard.dispatched_chunks")

    def _on_message(self, shard, message, inflight, outcomes, running,
                    failures, quarantine, requeue, note_busy, count,
                    now) -> None:
        inf = inflight.pop(shard, None)
        if inf is not None:
            note_busy(shard, inf, now)
        kind = message[0]
        if kind == "done":
            _, cid, _attempt, chunk_results, start, end, worker_counters = (
                message
            )
            running.get(cid, set()).discard(shard)
            if cid in outcomes:
                count("shard.duplicate_results")
                return
            outcomes[cid] = (chunk_results, start, end, worker_counters,
                             shard)
            self._durations.append(end - start)
            count("shard.completed_chunks")
            count("shard.sites", len(chunk_results))
        elif kind == "fail":
            _, cid, _attempt, _message = message
            running.get(cid, set()).discard(shard)
            count("shard.failures")
            failures[shard] = failures.get(shard, 0) + 1
            if failures[shard] >= self.plane.quarantine_after:
                quarantine(shard)
            if inf is not None and cid not in outcomes \
                    and not running.get(cid):
                requeue(inf.chunk)

    def _straggler_candidate(self, inflight, running, outcomes):
        """The oldest over-watermark in-flight chunk worth duplicating.

        Requires a few completed chunks first: the watermark is
        ``straggler_factor x p95`` of observed chunk walls (floored at
        ``straggler_min_s``), and with no history every first-wave
        chunk would look slow.
        """
        if len(self._durations) < 4:
            return None
        from repro.serve.metrics import percentile

        watermark = max(
            self.plane.straggler_min_s,
            self.plane.straggler_factor
            * percentile(list(self._durations), 95.0),
        )
        now = time.perf_counter()
        candidate = None
        for inf in inflight.values():
            cid = inf.chunk.chunk_id
            if cid in outcomes or len(running.get(cid, ())) != 1:
                continue
            if now - inf.since <= watermark:
                continue
            if candidate is None or inf.since < candidate.since:
                candidate = inf
        return candidate.chunk if candidate is not None else None

    def _run_inline(self, chunk: ShardChunk, outcomes, count) -> None:
        """Quarantine one chunk to the parent's exact inline path."""
        if chunk.chunk_id in outcomes:
            return
        cid, chunk_results, start, end, worker_counters = _realign_chunk(
            chunk.chunk_id, chunk.sites, self.config
        )
        outcomes[cid] = (chunk_results, start, end, worker_counters,
                         INLINE_SHARD)
        count("shard.inline_chunks")
        count("shard.completed_chunks")
        count("shard.sites", len(chunk.sites))

    # -- transports ------------------------------------------------------
    def _transport_alive(self, shard: int) -> bool:
        transport = self._transports.get(shard)
        return transport is not None and transport.alive()

    def _ensure_transport(self, shard: int, count) -> Optional[ShardTransport]:
        transport = self._transports.get(shard)
        if transport is not None and transport.alive():
            return transport
        if transport is not None:
            transport.kill()
            self._transports[shard] = None
        try:
            if self._factory is not None:
                transport = self._factory(shard)
            else:
                transport = PipeShardTransport(shard, self.config,
                                               self.recovery.plan)
        except Exception:  # noqa: BLE001 - spawn failure -> quarantine
            return None
        if shard in self._spawned_once:
            count("shard.respawns")
        self._spawned_once.add(shard)
        self._transports[shard] = transport
        return transport

    # -- observability ---------------------------------------------------
    def occupancy(self) -> Dict[str, float]:
        """Latest run's per-shard busy fraction (dispatch to result)."""
        return dict(self._occupancy)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        for shard, transport in list(self._transports.items()):
            if transport is not None:
                transport.close()
            self._transports[shard] = None

    def __enter__(self) -> "ShardPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


__all__ = [
    "DEFAULT_REGION_SPAN",
    "INLINE_SHARD",
    "ShardChunk",
    "ShardPlane",
    "ShardPlaneConfig",
    "shard_for",
]
