"""The asyncio request plane over the batched/streaming engines.

``RealignmentService`` turns an engine -- the batch-CLI workhorse --
into a shared, admission-controlled server component:

- **coalescing.** Concurrent requests' sites are gathered into one
  engine dispatch (up to ``coalesce_sites`` sites, or until the oldest
  request has lingered ``coalesce_wait_ms``), exactly the batching
  trick ``SystemConfig.dispatch_batch`` plays for the accelerator's
  transfer channel. Small requests from many tenants amortize the
  engine's per-call overhead; the engine's own pool then parallelizes
  within the coalesced batch.
- **admission control + backpressure.** At most ``max_queue_sites``
  sites may be outstanding (accepted, not yet completed) -- the
  service-level extension of ``StreamingEngine``'s bounded
  ``queue_depth x workers`` in-flight window. Over-limit submissions
  are rejected (:class:`~repro.serve.request.ServiceSaturated`) or, in
  ``admission="queue"`` mode, parked until room frees -- and either
  way every request carries a deadline past which it fails with
  :class:`~repro.serve.request.DeadlineExceeded` instead of computing.
- **observability.** Per-request latency (p50/p95/p99), queue depth,
  outstanding sites, saturation (fraction of uptime at the admission
  limit), and per-tenant tallies, all from the same counter fabric the
  engines already feed (:meth:`snapshot`).

Results are byte-identical to the batch path: sites are independent
and every kernel is exact, so realigning a site inside a coalesced
batch of strangers yields the same :class:`~repro.realign.whd
.SiteResult` as realigning it alone (pinned by tests/test_serve.py).

Engine calls are blocking (multiprocessing pools underneath), so the
service runs them on a dedicated single-thread executor: the event
loop stays responsive for admission and I/O while exactly one engine
dispatch is in flight -- the engine itself is the intra-batch
parallelism, and serializing dispatches is what makes the outstanding
-site bound a real memory bound.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.serve.metrics import LatencyRecorder, ServiceSnapshot
from repro.serve.request import (
    DEFAULT_TENANT,
    DeadlineExceeded,
    ServiceClosed,
    ServiceConfig,
    ServiceSaturated,
    SiteJob,
)

#: Sentinel queued behind the last job at shutdown.
_STOP = object()


class RealignmentService:
    """Admission-controlled, coalescing realignment over one engine.

    ``engine`` is anything with ``run_sites(sites) -> [SiteResult]``
    and (optionally) ``close()``: an
    :class:`~repro.engine.parallel.Engine`, a
    :class:`~repro.engine.stream.StreamingEngine`, or an
    :class:`~repro.engine.parallel.EngineConfig` (a live barrier engine
    is built from it and owned by the service). ``telemetry`` is an
    optional :class:`~repro.telemetry.Telemetry` session; engine
    counters fold into it per dispatch and the service's own
    ``serve.*`` counters fold in at :meth:`close`. An engine that
    carries a :class:`~repro.shard.cache.SiteResultCache` (``cache=``)
    consults it inside ``run_sites``; the service only surfaces its
    counters and hit rate in :meth:`snapshot`.
    """

    def __init__(self, engine, config: Optional[ServiceConfig] = None,
                 telemetry=None):
        from repro.engine import Engine, EngineConfig

        self._owns_engine = isinstance(engine, EngineConfig)
        self.engine = Engine(engine) if self._owns_engine else engine
        self.config = config if config is not None else ServiceConfig()
        self.telemetry = telemetry
        self.latencies = LatencyRecorder()
        self.counters: Dict[str, int] = {}
        self.tenant_sites: Dict[str, int] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._room: Optional[asyncio.Condition] = None
        self._batcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._outstanding = 0
        self._outstanding_by_tenant: Dict[str, int] = {}
        self._closing = False
        self._started_at = 0.0
        self._saturated_since: Optional[float] = None
        self._saturated_us = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "RealignmentService":
        """Bind to the running loop and start the coalescing batcher."""
        if self._batcher is not None:
            raise RuntimeError("service already started")
        # Pre-warm the compiled kernel tier before accepting traffic:
        # first-call JIT / shared-library compilation must never land
        # inside a served request's latency.
        kernel = getattr(getattr(self.engine, "config", None),
                         "kernel", "auto")
        if kernel in ("auto", "native"):
            from repro.engine.native import warmup_native

            warmup_native()
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._room = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-engine"
        )
        self._started_at = time.perf_counter()
        self._batcher = asyncio.create_task(self._dispatch_loop(),
                                            name="serve-batcher")
        return self

    async def close(self, drain: bool = True) -> None:
        """Stop the service; with ``drain`` (default) finish queued work.

        New submissions fail with :class:`ServiceClosed` immediately.
        Queued and in-flight jobs complete normally unless the drain
        exceeds ``config.drain_timeout_s``, at which point the batcher
        is cancelled and the stragglers fail with ``ServiceClosed``.
        """
        if self._batcher is None or self._closing:
            return
        self._closing = True
        self._queue.put_nowait(_STOP)
        async with self._room:  # wake parked submitters -> ServiceClosed
            self._room.notify_all()
        timeout = self.config.drain_timeout_s if drain else 0.0
        try:
            await asyncio.wait_for(asyncio.shield(self._batcher), timeout)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._batcher.cancel()
            try:
                await self._batcher
            except (asyncio.CancelledError, Exception):
                pass
            self._fail_queued(ServiceClosed("service shut down mid-drain"))
        self._note_saturation(time.perf_counter())
        if self.telemetry is not None:
            for name, value in self.counters.items():
                self.telemetry.count(name, value)
            self.telemetry.count("serve.saturated_us", self._saturated_us)
        self._executor.shutdown(wait=True)
        if self._owns_engine and hasattr(self.engine, "close"):
            self.engine.close()

    def _fail_queued(self, error: Exception) -> None:
        while self._queue is not None and not self._queue.empty():
            job = self._queue.get_nowait()
            if job is _STOP:
                continue
            if not job.future.done():
                job.future.set_exception(error)
            self._retire(job)

    # -- submission (the admission-control edge) ------------------------
    async def submit_sites(
        self,
        sites: Sequence,
        tenant: str = DEFAULT_TENANT,
        deadline_s: Optional[float] = None,
    ) -> List:
        """Realign ``sites``; returns their results in input order.

        Raises :class:`ServiceSaturated` when admission control refuses
        the submission (``admission="reject"``), or parks until room
        frees (``admission="queue"``); raises :class:`DeadlineExceeded`
        if the deadline passes while parked or queued; raises
        :class:`ServiceClosed` during/after shutdown. An empty site
        list completes immediately (no queue traffic).
        """
        if self._batcher is None:
            raise RuntimeError("service not started")
        if self._closing:
            raise ServiceClosed("service is shutting down")
        sites = list(sites)
        self._count("serve.requests", 1)
        if not sites:
            self._count("serve.requests_completed", 1)
            return []
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = time.perf_counter()
        deadline_at = now + deadline_s
        await self._admit(len(sites), tenant, deadline_at)
        job = SiteJob(
            tenant=tenant,
            sites=sites,
            future=self._loop.create_future(),
            enqueued_at=time.perf_counter(),
            deadline_at=deadline_at,
        )
        self._count("serve.requests_accepted", 1)
        self._count("serve.sites_accepted", len(sites))
        self.tenant_sites[tenant] = (
            self.tenant_sites.get(tenant, 0) + len(sites)
        )
        self._queue.put_nowait(job)
        self._count_peak("serve.queue_depth_peak", self._queue.qsize())
        return await job.future

    def _has_room(self, num_sites: int, tenant: str) -> bool:
        # A single job larger than a cap may run when it would run
        # *alone* under that cap -- otherwise it could never be
        # admitted at all; the bound degrades to "one oversized job at
        # a time", which is still a memory bound.
        if self._outstanding + num_sites > self.config.max_queue_sites:
            oversized = num_sites > self.config.max_queue_sites
            if not (oversized and self._outstanding == 0):
                return False
        cap = self.config.max_tenant_sites
        if cap is not None:
            held = self._outstanding_by_tenant.get(tenant, 0)
            if held + num_sites > cap and not (num_sites > cap
                                               and held == 0):
                return False
        return True

    async def _admit(self, num_sites: int, tenant: str,
                     deadline_at: float) -> None:
        now = time.perf_counter()
        if self._has_room(num_sites, tenant):
            self._take_room(num_sites, tenant, now)
            return
        self._note_saturation(now, saturated=True)
        if self.config.admission == "reject":
            self._count("serve.requests_rejected", 1)
            self._count("serve.sites_rejected", num_sites)
            raise ServiceSaturated(num_sites, self._outstanding,
                                   self.config.max_queue_sites, tenant)
        wait_start = now
        async with self._room:
            while not self._has_room(num_sites, tenant):
                if self._closing:
                    raise ServiceClosed("service is shutting down")
                remaining = deadline_at - time.perf_counter()
                if remaining <= 0:
                    self._count("serve.requests_expired", 1)
                    self._count("serve.sites_expired", num_sites)
                    raise DeadlineExceeded(
                        f"deadline passed after waiting "
                        f"{time.perf_counter() - wait_start:.3f}s "
                        f"for admission ({tenant})"
                    )
                try:
                    await asyncio.wait_for(self._room.wait(), remaining)
                except asyncio.TimeoutError:
                    continue  # re-check: deadline branch above fires
            now = time.perf_counter()
            self._take_room(num_sites, tenant, now)
        self._count("serve.admission_wait_us",
                    int((now - wait_start) * 1e6))

    def _take_room(self, num_sites: int, tenant: str, now: float) -> None:
        self._outstanding += num_sites
        self._outstanding_by_tenant[tenant] = (
            self._outstanding_by_tenant.get(tenant, 0) + num_sites
        )
        self._count_peak("serve.outstanding_peak", self._outstanding)
        self._note_saturation(
            now, saturated=self._outstanding >= self.config.max_queue_sites
        )

    def _retire(self, job: SiteJob) -> None:
        """Release a job's admission claim and wake parked submitters."""
        self._outstanding -= job.num_sites
        held = self._outstanding_by_tenant.get(job.tenant, 0) - job.num_sites
        if held > 0:
            self._outstanding_by_tenant[job.tenant] = held
        else:
            self._outstanding_by_tenant.pop(job.tenant, None)
        self._note_saturation(
            time.perf_counter(),
            saturated=self._outstanding >= self.config.max_queue_sites,
        )
        if self._room is not None and self.config.admission == "queue":
            # Only queue mode parks submitters on the condition; the
            # notify runs as a loop task so _retire itself stays sync.
            self._loop.create_task(self._notify_room())

    async def _notify_room(self) -> None:
        async with self._room:
            self._room.notify_all()

    # -- the coalescing batcher ----------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            if job is _STOP:
                return
            batch, stop = await self._gather(job)
            await self._dispatch(batch)
            if stop:
                return

    async def _gather(self, first: SiteJob):
        """Coalesce queued jobs behind ``first`` into one engine batch."""
        batch = [first]
        gathered = first.num_sites
        linger_until = (time.perf_counter()
                        + self.config.coalesce_wait_ms / 1e3)
        stop = False
        while gathered < self.config.coalesce_sites:
            timeout = linger_until - time.perf_counter()
            if timeout <= 0 and self._queue.empty():
                break
            try:
                job = await asyncio.wait_for(self._queue.get(),
                                             max(timeout, 0.0))
            except asyncio.TimeoutError:
                break
            if job is _STOP:
                stop = True
                break
            batch.append(job)
            gathered += job.num_sites
        return batch, stop

    async def _dispatch(self, batch: List[SiteJob]) -> None:
        now = time.perf_counter()
        live: List[SiteJob] = []
        for job in batch:
            if job.future.cancelled():
                self._retire(job)
            elif job.deadline_at < now:
                self._count("serve.requests_expired", 1)
                self._count("serve.sites_expired", job.num_sites)
                job.future.set_exception(DeadlineExceeded(
                    f"deadline passed while queued "
                    f"({now - job.enqueued_at:.3f}s, tenant {job.tenant})"
                ))
                self._retire(job)
            else:
                live.append(job)
        if not live:
            return
        sites = [site for job in live for site in job.sites]
        self._count("serve.batches_dispatched", 1)
        self._count("serve.sites_dispatched", len(sites))
        self._count_peak("serve.coalesced_sites_peak", len(sites))
        try:
            results = await self._loop.run_in_executor(
                self._executor,
                lambda: self.engine.run_sites(sites,
                                              telemetry=self.telemetry),
            )
        except Exception as error:
            self._count("serve.batches_failed", 1)
            self._fold_engine_counters()
            for job in live:
                self._count("serve.requests_failed", 1)
                if not job.future.done():
                    job.future.set_exception(error)
                self._retire(job)
            return
        self._fold_engine_counters()
        done = time.perf_counter()
        offset = 0
        for job in live:
            slice_ = results[offset:offset + job.num_sites]
            offset += job.num_sites
            if not job.future.done():
                job.future.set_result(slice_)
            self._count("serve.requests_completed", 1)
            self._count("serve.sites_completed", job.num_sites)
            self.latencies.record(job.tenant, done - job.enqueued_at)
            self._retire(job)

    # -- bookkeeping ----------------------------------------------------
    def _count(self, name: str, delta: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def _fold_engine_counters(self) -> None:
        """Accumulate per-dispatch engine observations into ours.

        ``recovery_counters`` describes only the *latest* run (the pool
        drains them each dispatch), so the service sums them across
        dispatches -- a snapshot then reports every injected fault and
        recovery action since start, not just the last batch's.
        """
        recovery = getattr(self.engine, "recovery_counters", None)
        if recovery:
            for name, value in recovery.items():
                self._count(name, value)

    def _count_peak(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _note_saturation(self, now: float,
                         saturated: Optional[bool] = None) -> None:
        """Accumulate time spent at/over the admission limit."""
        if self._saturated_since is not None:
            self._saturated_us += int((now - self._saturated_since) * 1e6)
            self._saturated_since = None
        if saturated:
            self._saturated_since = now

    def snapshot(self) -> ServiceSnapshot:
        """Current counters, latency percentiles, and saturation."""
        now = time.perf_counter()
        uptime = max(now - self._started_at, 1e-9)
        saturated_us = self._saturated_us
        if self._saturated_since is not None:
            saturated_us += int((now - self._saturated_since) * 1e6)
        counters = dict(self.counters)
        counters["serve.saturated_us"] = saturated_us
        if hasattr(self.engine, "stream_stats"):
            counters.update(self.engine.stream_stats or {})
        cache_hit_rate = 0.0
        cache = getattr(self.engine, "cache", None)
        if cache is not None:
            counters.update(cache.snapshot())
            cache_hit_rate = cache.hit_rate
        return ServiceSnapshot(
            counters=counters,
            latency=self.latencies.summary(),
            tenant_latency=self.latencies.tenant_summaries(),
            tenant_sites=dict(self.tenant_sites),
            queue_depth=self._queue.qsize() if self._queue else 0,
            outstanding_sites=self._outstanding,
            uptime_s=uptime,
            saturation=min(saturated_us / (uptime * 1e6), 1.0),
            cache_hit_rate=cache_hit_rate,
        )


__all__ = ["RealignmentService"]
