"""Chunked execution of independent realignment sites: one dispatch loop.

Realignment sites are embarrassingly parallel -- target creation
guarantees a read belongs to at most one site -- so the engine cuts a
site list into fixed-size chunks and runs them through **one**
generator, :meth:`Engine.stream_sites`, which owns the site-result
cache consult, chunking, the inline-versus-pooled decision, the
in-flight window, the in-order merge and the counter/span fold. The
pool runs the paper's asynchronous schedule: at most ``queue_depth x
workers`` chunks are in flight or parked in the reorder buffer, and the
next chunk is submitted only when a slot frees (backpressure), so peak
memory is the window, not the site list, and the first results emerge
before later chunks are submitted. Idle workers take the next pending
chunk, so stragglers (sites are Zipf-like in size) do not serialize the
tail. (The synchronous, barrier schedule survives only in the FPGA
model, :mod:`repro.core.scheduler`; on the host it is the window that
holds every chunk, and buys nothing the bounded one does not.)

The workers are the paper's units: ``workers`` threads in this process
sharing one memory, like the 32 IR units share the FPGA's DRAM. The
compiled kernel is one ``ctypes`` call per site and releases the GIL
for its length, and the numpy kernels release it for their large array
ops, so the threads run the kernels in parallel with no fork, no pickle
and no copy of the sites. A chunk computes a pure function of its
sites, so a chunk that raises would raise again: its exception leaves
:meth:`Engine.stream_sites` at once, the chunks not yet started are
cancelled, and the ones that completed are still recorded
(docs/RESILIENCE.md, "Host data plane: errors propagate"). A
:class:`ReorderBuffer` re-sequences
completed chunks into submission order, so the output -- and the final
SAM -- is byte-identical to the serial path at any worker count, window
or completion order (pinned against ``tests/golden/``).

Workers run each site through
:func:`repro.engine.autotune.dispatch_realign` and count telemetry into
a per-chunk sink; the engine folds the counters into its session when
the run ends (or is abandoned), with the window's ``stream.*``
counters, and records one wall-clock span per chunk
(:func:`record_engine_shards`), so a Chrome trace shows the chunks
overlapping.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.autotune import KERNEL_CHOICES, dispatch_realign
from repro.engine.native import native_mode
from repro.kernels import default_workers
from repro.realign.site import RealignmentSite
from repro.realign.whd import SCORING_METHODS, SiteResult


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the batched parallel engine.

    ``workers`` is the number of unit threads, and defaults to the CPUs
    this process may run on (:func:`~repro.kernels.default_workers`:
    the affinity mask, else the CPU count) -- the units are the cores.
    ``workers=1`` (the default on a one-CPU host) runs shards inline (no
    threads) but still through the batched kernel; ``batch`` is the
    shard size in sites -- large enough
    to amortize per-chunk dispatch, small enough that work-stealing can
    balance uneven shards. ``kernel`` routes each site through
    :func:`repro.engine.autotune.dispatch_realign`: a kernel name, or
    ``"auto"`` (default), which means ``"native"``.

    >>> EngineConfig(workers=2, batch=4).kernel
    'auto'
    >>> EngineConfig().workers == default_workers()
    True
    >>> EngineConfig(workers=0)
    Traceback (most recent call last):
        ...
    ValueError: workers must be >= 1, got 0
    >>> EngineConfig(kernel="simd")
    Traceback (most recent call last):
        ...
    ValueError: unknown kernel 'simd'; choose from ('auto', 'scalar', 'vector', 'fft', 'bitpack', 'native')
    """

    workers: int = field(default_factory=default_workers)
    batch: int = 8
    scoring: str = "similarity"
    kernel: str = "auto"

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.scoring not in SCORING_METHODS:
            raise ValueError(f"unknown scoring method {self.scoring!r}")
        if self.kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"choose from {KERNEL_CHOICES}"
            )
        # Reject a misspelt REPRO_NATIVE when the engine is configured,
        # not from inside the first chunk.
        native_mode()


@dataclass
class ShardStats:
    """One shard's execution record (perf_counter timestamps)."""

    shard: int
    sites: int
    start: float
    end: float
    counters: Dict[str, int] = field(default_factory=dict)


class _CounterSink:
    """Minimal stand-in for a telemetry session inside one chunk.

    The kernel only calls ``count``; the engine folds the accumulated
    deltas into its real telemetry session after the merge, on the
    consuming thread, so no session is shared between worker threads.
    """

    def __init__(self):
        self.counters: Dict[str, int] = {}

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(delta)


def _realign_chunk(
    chunk_id: int, sites: Sequence[RealignmentSite], config: EngineConfig
) -> Tuple[int, List[SiteResult], float, float, Dict[str, int]]:
    """Realign one chunk (shared by the pool and the inline path).

    The returned ``perf_counter`` timestamps let the engine lay every
    worker's shards on one timeline.
    """
    start = time.perf_counter()
    sink = _CounterSink()
    results = [
        dispatch_realign(
            site,
            kernel=config.kernel,
            scoring=config.scoring,
            telemetry=sink,
        )
        for site in sites
    ]
    return chunk_id, results, start, time.perf_counter(), sink.counters


def record_engine_shards(telemetry, shards: Sequence[ShardStats],
                         origin: float, workers: int) -> None:
    """Record an engine run as a span timeline (one track per chunk).

    Each chunk becomes one ``CAT_ENGINE`` span ``"shard N (S sites)"``
    on the track ``"engine shard N"``, offset from ``origin`` (the run's
    start on the same ``perf_counter`` clock), so a Chrome trace shows
    chunks overlapping across workers -- and, under the bounded window,
    starting later than ``queue_depth x workers`` would allow (the
    visual signature of backpressure). Engine timelines tick in
    *seconds* (``ticks_per_second=1``).
    """
    from repro.telemetry.spans import CAT_ENGINE

    if not shards:
        return
    if telemetry.ticks_per_second is None:
        telemetry.ticks_per_second = 1.0
    for shard in shards:
        telemetry.span(
            f"shard {shard.shard} ({shard.sites} sites)",
            f"engine shard {shard.shard}",
            shard.start - origin,
            shard.end - origin,
            CAT_ENGINE,
        )
    telemetry.count("engine.shards", len(shards))
    telemetry.count("engine.shard_sites", sum(s.sites for s in shards))
    telemetry.count("engine.workers", workers)


class ReorderBuffer:
    """Re-sequence out-of-order completions into submission order.

    ``push(index, value)`` files one completion and returns every value
    that became emittable (the contiguous run starting at the next
    expected index). ``peak_pending`` records the deepest the buffer
    ever got: with random completion order it is bounded by the
    in-flight window, which is what bounds a streamed run's peak memory.

    >>> buffer = ReorderBuffer()
    >>> buffer.push(2, "c"), buffer.push(1, "b")
    ([], [])
    >>> buffer.push(0, "a")
    ['a', 'b', 'c']
    >>> buffer.pending, buffer.peak_pending
    (0, 3)
    """

    def __init__(self, start: int = 0):
        self._next = start
        self._held: Dict[int, object] = {}
        self.peak_pending = 0

    @property
    def pending(self) -> int:
        return len(self._held)

    def push(self, index: int, value) -> List:
        if index < self._next or index in self._held:
            raise ValueError(f"chunk {index} already emitted or buffered")
        self._held[index] = value
        self.peak_pending = max(self.peak_pending, len(self._held))
        ready: List = []
        while self._next in self._held:
            ready.append(self._held.pop(self._next))
            self._next += 1
        return ready


class Engine:
    """Batched parallel realignment over a list of independent sites.

    The ``workers`` threads are started on the first pooled run (two or
    more workers and more than one chunk) and persist across runs, so
    create the engine once and reuse it; ``workers=1`` never starts a
    thread. Usable as a context manager; :meth:`close` joins the
    threads, and garbage collection does too.

    ``cache`` (a :class:`~repro.shard.cache.SiteResultCache`) is
    consulted once per run, in front of chunking: hits never reach a
    chunk, misses are inserted as their results are yielded, and the
    output is the same with or without it (docs/SHARDING.md).

    ``queue_depth`` is the number of in-flight chunks *per worker*: a
    pooled run holds at most ``queue_depth x workers`` chunks in flight
    or parked in the reorder buffer. 2 (the default) keeps every worker
    one chunk ahead -- enough to hide dispatch latency, small enough to
    bound memory and let work-stealing balance the tail; a window that
    holds every chunk is the old barrier. Results are byte-identical at
    any depth.
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 queue_depth: int = 2, cache=None):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.config = config if config is not None else EngineConfig()
        self.queue_depth = queue_depth
        self.cache = cache
        #: Always empty: a failing chunk raises, nothing is recovered.
        #: Only the end-to-end benchmark's pool and shard probes read
        #: it, and it goes with them.
        self.recovery_counters: Dict[str, int] = {}
        self._executor = None
        self._reset()

    def _reset(self) -> None:
        """Forget the previous run's observations."""
        #: One record per completed chunk of the latest run, by chunk id.
        self.shard_stats: List[ShardStats] = []
        #: The window's observations from the latest run (``stream.*``).
        self.stream_stats: Dict[str, int] = {}

    def run_sites(
        self,
        sites: Sequence[RealignmentSite],
        telemetry=None,
    ) -> List[SiteResult]:
        """Realign ``sites``; results align index-for-index with input."""
        return list(self.stream_sites(sites, telemetry=telemetry))

    def stream_sites(
        self,
        sites: Sequence[RealignmentSite],
        telemetry=None,
    ) -> Iterator[SiteResult]:
        """Yield one :class:`SiteResult` per site, in input order.

        Site ``i``'s result is yielded as soon as every chunk up to
        ``i``'s has completed, so the output is identical for any
        ``workers`` or window setting and consumers downstream overlap
        their work with the chunks still in flight. Abandoning the
        generator mid-run is safe: the pool survives for the next run,
        and ``shard_stats`` / telemetry record the chunks that
        completed before the abandon.

        This is the one place the cache is consulted: hits are yielded
        from it (leading hits before anything is dispatched), only the
        misses are chunked, and each fresh result is inserted on its
        way out. A run of nothing but hits dispatches nothing and
        leaves ``shard_stats`` empty.
        """
        self._reset()
        if not sites:
            return
        if self.cache is None:
            yield from self._dispatch(list(sites), telemetry)
            return
        # Whoever built the cache has imported its module already; a
        # cache-less run never loads it.
        from repro.shard.cache import lookup_sites

        hits, misses, keys = lookup_sites(self.cache, sites, self.config)
        if telemetry is not None:
            telemetry.count("engine.cache_hits", len(sites) - len(misses))
            telemetry.count("engine.cache_misses", len(misses))
        fresh = self._dispatch([sites[index] for index in misses], telemetry)
        try:
            for site, key, result in zip(sites, keys, hits):
                if result is None:
                    result = next(fresh)
                    self.cache.put(key, site.start, result)
                yield result
        finally:
            # Also on failure and abandon: the dispatch loop folds
            # whatever completed when it is closed.
            fresh.close()

    def _dispatch(
        self,
        sites: List[RealignmentSite],
        telemetry,
    ) -> Iterator[SiteResult]:
        """The chunk loop behind :meth:`stream_sites`: contiguous
        ``config.batch``-site chunks of the (non-empty) miss list,
        results in input order."""
        run_start = time.perf_counter()
        batch = self.config.batch
        chunks = [sites[lo:lo + batch] for lo in range(0, len(sites), batch)]
        reorder = ReorderBuffer()
        observed = {"in_flight_peak": 1, "backpressure_us": 0}
        in_flight: set = set()
        try:
            if self.config.workers == 1 or len(chunks) == 1:
                for chunk_id, chunk in enumerate(chunks):
                    outcome = _realign_chunk(chunk_id, chunk, self.config)
                    self._file_outcome(outcome)
                    yield from outcome[1]
                return
            executor = self._ensure_executor()
            window = self.queue_depth * self.config.workers
            done: queue_module.Queue = queue_module.Queue()
            submitted = completed = 0
            while completed < len(chunks):
                # Chunks held in the reorder buffer count against the
                # window: they are finished results waiting on a slower
                # predecessor, and submitting past them would let peak
                # memory grow beyond the window whenever the head chunk
                # is the slow one. No deadlock lurks here -- submission
                # is in order, so the next expected chunk is always
                # either in flight or already emitted.
                while (submitted < len(chunks)
                       and submitted - completed + reorder.pending < window):
                    future = executor.submit(
                        _realign_chunk, submitted, chunks[submitted],
                        self.config)
                    future.add_done_callback(done.put)
                    in_flight.add(future)
                    submitted += 1
                    observed["in_flight_peak"] = max(
                        observed["in_flight_peak"], submitted - completed
                    )
                # The window is full (or the tail is draining): block
                # until a chunk completes. Time spent here with tasks
                # still unsubmitted is backpressure by definition. A
                # thread's future always resolves, so this cannot wait
                # on a lost result.
                wait_start = time.perf_counter()
                finished = done.get()
                in_flight.discard(finished)
                if submitted < len(chunks):
                    observed["backpressure_us"] += int(
                        (time.perf_counter() - wait_start) * 1e6
                    )
                outcome = finished.result()
                completed += 1
                self._file_outcome(outcome)
                for chunk_results in reorder.push(outcome[0], outcome[1]):
                    yield from chunk_results
        finally:
            # Runs on exhaustion, failure AND when the consumer abandons
            # the generator: chunks not yet started are dropped, and
            # whatever completed is still observed.
            for future in in_flight:
                future.cancel()
            observed["reorder_peak"] = reorder.peak_pending
            self._finish(telemetry, run_start, observed)

    def _file_outcome(self, outcome) -> None:
        chunk_id, results, start, end, counters = outcome
        self.shard_stats.append(ShardStats(
            shard=chunk_id, sites=len(results),
            start=start, end=end, counters=counters,
        ))

    def _finish(self, telemetry, run_start: float,
                observed: Dict[str, int]) -> None:
        """Fold the run's observations into ``self`` and ``telemetry``."""
        self.shard_stats.sort(key=lambda stat: stat.shard)
        self.stream_stats = {
            "stream.chunks": len(self.shard_stats),
            "stream.queue_depth": self.queue_depth,
            "stream.max_in_flight": observed["in_flight_peak"],
            "stream.reorder_peak": observed["reorder_peak"],
            "stream.backpressure_us": observed["backpressure_us"],
        }
        if telemetry is None:
            return
        for name, value in self.stream_stats.items():
            telemetry.count(name, value)
        for stat in self.shard_stats:
            for name, value in stat.counters.items():
                telemetry.count(name, value)
        record_engine_shards(telemetry, self.shard_stats, run_start,
                             self.config.workers)

    def _ensure_executor(self):
        """The ``workers`` unit threads, started on the first pooled run.

        The compiled kernel is warmed here first, once: two threads
        making their first kernel call together would otherwise race
        the backend probe and build the library twice.
        """
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor

            if self.config.kernel in ("auto", "native"):
                from repro.engine.native import warmup_native

                warmup_native()
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-unit",
            )
        return self._executor

    def close(self) -> None:
        """Join the unit threads (chunks not yet started are dropped)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def resolve_engine(engine, scoring: str):
    """The live engine an ``engine=`` argument names.

    An :class:`EngineConfig` becomes a new :class:`Engine` with the
    caller's ``scoring``; anything with the ``run_sites`` contract (an
    engine, a test fake) is used as is.
    """
    if isinstance(engine, EngineConfig):
        return Engine(replace(engine, scoring=scoring))
    if hasattr(engine, "run_sites"):
        return engine
    raise TypeError(
        "engine must be an EngineConfig or an object with run_sites()"
    )
