"""Chunked execution of independent realignment sites: one dispatch loop.

Realignment sites are embarrassingly parallel -- target creation
guarantees a read belongs to at most one site -- so the engine cuts a
site list into fixed-size chunks and runs them through **one**
generator, :meth:`Engine.stream_sites`, which owns the site-result
cache consult, chunking, the inline-versus-pooled decision, the
in-flight window, the in-order merge and the counter/span fold. The
paper's synchronous- and asynchronous-parallel schedules are that loop
at two
window sizes: :class:`Engine` submits every chunk at once (a barrier is
window = all chunks), :class:`repro.engine.stream.StreamingEngine`
keeps ``queue_depth x workers`` in flight. Idle workers take the next
pending chunk, so stragglers (sites are Zipf-like in size) do not
serialize the tail.

There is one pool, :class:`repro.resilience.workers.ResilientPool`: a
killed, hung or erroring worker is retried, bisected or quarantined
inline under a per-chunk deadline on every pooled run -- recovery is
the pool, not a mode. A :class:`ReorderBuffer` re-sequences completed
chunks into submission order, so the output -- and the final SAM -- is
byte-identical to the serial path at any worker count, window or
completion order (pinned against ``tests/golden/``).

Workers run each site through
:func:`repro.engine.autotune.dispatch_realign` and count telemetry
locally; the parent folds the counters into its session when the run
ends (or is abandoned) and records one wall-clock span per chunk
(:func:`repro.perf.fleet.record_engine_shards`), so a Chrome trace
shows the chunks overlapping.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.autotune import KERNEL_CHOICES, dispatch_realign
from repro.engine.native import native_mode
from repro.realign.site import RealignmentSite
from repro.realign.whd import SCORING_METHODS, SiteResult
from repro.telemetry.spans import CAT_ENGINE


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for the batched parallel engine.

    ``workers=1`` runs shards inline (no pool, no pickling) but still
    through the batched kernel; ``batch`` is the shard size in sites --
    large enough to amortize per-task IPC, small enough that
    work-stealing can balance uneven shards. ``kernel`` routes each
    site through :func:`repro.engine.autotune.dispatch_realign`: a
    kernel name, or ``"auto"`` (default), which means ``"native"``.

    >>> EngineConfig(workers=2, batch=4).prefilter
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

    workers: int = 1
    batch: int = 8
    prefilter: bool = True
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
        # Reject a misspelt REPRO_NATIVE here, in the parent: raised
        # from a pool initializer it would respawn workers forever.
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
    """Minimal stand-in for a telemetry session inside a worker.

    The kernel only calls ``count``; the parent process folds the
    accumulated deltas into its real telemetry session after the merge
    (span clocks do not transfer between processes, counters do).
    """

    def __init__(self):
        self.counters: Dict[str, int] = {}

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(delta)


#: Per-worker invariant state, set once by the pool initializer. The
#: EngineConfig never varies between chunks of one run, so shipping it
#: in every task payload would re-pickle the same bytes per chunk; the
#: initializer sends it exactly once per worker process.
_WORKER_CONFIG: Optional[EngineConfig] = None


def _init_worker(config: EngineConfig) -> None:
    """Pool initializer: install the run-invariant config.

    When the run can route sites through the native tier (``kernel``
    is ``auto`` or ``native``), each worker also pre-warms the compiled
    backend here, so one-time JIT/shared-library compilation happens
    during pool startup instead of inside the first timed chunk.
    """
    global _WORKER_CONFIG
    _WORKER_CONFIG = config
    if config.kernel in ("auto", "native"):
        from repro.engine.native import warmup_native

        warmup_native()


def _realign_chunk(
    chunk_id: int, sites: Sequence[RealignmentSite], config: EngineConfig
) -> Tuple[int, List[SiteResult], float, float, Dict[str, int]]:
    """Realign one chunk (shared by the pool, inline, and stream paths).

    ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so the returned
    timestamps are comparable across processes and the parent can lay
    shards on a shared timeline.
    """
    start = time.perf_counter()
    sink = _CounterSink()
    results = [
        dispatch_realign(
            site,
            kernel=config.kernel,
            scoring=config.scoring,
            prefilter=config.prefilter,
            telemetry=sink,
        )
        for site in sites
    ]
    return chunk_id, results, start, time.perf_counter(), sink.counters


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

    @property
    def next_index(self) -> int:
        return self._next

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

    The worker pool is created lazily on the first multiprocess run and
    persists across runs (forking a pool costs tens of milliseconds --
    far more than a warm task round-trip), so create the engine once
    and reuse it; ``workers=1`` never creates a pool or thread.
    Usable as a context manager; the pool is also reaped on garbage
    collection.

    ``recovery`` (a :class:`~repro.resilience.workers.WorkerRecovery`)
    sets the pool's chunk deadline, retry policy and -- for chaos
    testing -- fault plan. ``None`` (the default) means
    :meth:`~repro.resilience.workers.WorkerRecovery.from_env`: the
    fault-free defaults overlaid by any ``REPRO_*`` values, which is
    how CI runs any engine workload under injected chaos.

    ``cache`` (a :class:`~repro.shard.cache.SiteResultCache`) is
    consulted once per run, in front of chunking: hits never reach a
    chunk, misses are inserted as their results are yielded, and the
    output is the same with or without it (docs/SHARDING.md).
    """

    #: In-flight chunk bound; ``None`` submits every chunk at once.
    _window: Optional[int] = None
    #: Span category, track prefix and span-name prefix of the chunk
    #: timeline (:func:`repro.perf.fleet.record_engine_shards`).
    _timeline = (CAT_ENGINE, "engine shard", "shard")

    def __init__(self, config: Optional[EngineConfig] = None,
                 recovery=None, cache=None):
        from repro.resilience.workers import WorkerRecovery

        self.config = config if config is not None else EngineConfig()
        self.recovery = (recovery if recovery is not None
                         else WorkerRecovery.from_env())
        self.cache = cache
        self._rpool = None
        self._reset()

    def _reset(self) -> None:
        """Forget the previous run's observations."""
        #: One record per completed chunk of the latest run, by chunk id.
        self.shard_stats: List[ShardStats] = []
        #: The pool's recovery observations from the latest run.
        self.recovery_counters: Dict[str, int] = {}
        self.recovery_events: List = []

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
        try:
            if self.config.workers == 1 or len(chunks) == 1:
                for chunk_id, chunk in enumerate(chunks):
                    outcome = _realign_chunk(chunk_id, chunk, self.config)
                    self._file_outcome(outcome)
                    yield from outcome[1]
                return
            from repro.resilience.policy import ResilienceError

            rpool = self._ensure_rpool()
            rpool.begin_run()
            # Recovery guarantees forward progress; the bound only turns
            # a recovery-machinery bug from a silent hang into a loud
            # ResilienceError.
            bound = self.recovery.completion_bound_seconds(
                self.config.batch, len(chunks))
            window = self._window or len(chunks)
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
                    rpool.submit_chunk(submitted, chunks[submitted],
                                       on_done=done.put)
                    submitted += 1
                    observed["in_flight_peak"] = max(
                        observed["in_flight_peak"], submitted - completed
                    )
                # The window is full (or the tail is draining): block
                # until a chunk completes. Time spent here with tasks
                # still unsubmitted is backpressure by definition.
                wait_start = time.perf_counter()
                try:
                    outcome = done.get(timeout=bound)
                except queue_module.Empty:
                    raise ResilienceError(
                        "worker recovery made no progress within "
                        f"{bound:.0f}s ({completed}/{len(chunks)} "
                        "chunks completed)"
                    ) from None
                if submitted < len(chunks):
                    observed["backpressure_us"] += int(
                        (time.perf_counter() - wait_start) * 1e6
                    )
                if isinstance(outcome, BaseException):
                    raise outcome
                completed += 1
                self._file_outcome(outcome)
                for chunk_results in reorder.push(outcome[0], outcome[1]):
                    yield from chunk_results
        finally:
            # Runs on exhaustion, failure AND when the consumer abandons
            # the generator: whatever completed is still observed.
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
        from repro.resilience.workers import record_recovery_spans

        self.shard_stats.sort(key=lambda stat: stat.shard)
        if self._rpool is not None:
            self.recovery_counters, self.recovery_events = (
                self._rpool.drain()
            )
        if telemetry is None:
            return
        for stat in self.shard_stats:
            for name, value in stat.counters.items():
                telemetry.count(name, value)
        for name, value in self.recovery_counters.items():
            telemetry.count(name, value)
        record_recovery_spans(telemetry, self.recovery_events,
                              origin=run_start)
        from repro.perf.fleet import record_engine_shards

        record_engine_shards(telemetry, self.shard_stats, *self._timeline,
                             origin=run_start, workers=self.config.workers)

    def _ensure_rpool(self):
        if self._rpool is None:
            from repro.resilience.workers import ResilientPool

            self._rpool = ResilientPool(self.config, self.recovery)
        return self._rpool

    def close(self) -> None:
        if self._rpool is not None:
            self._rpool.close()
            self._rpool = None

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
    engine, a streaming engine, a test fake) is used as is.
    """
    if isinstance(engine, EngineConfig):
        return Engine(replace(engine, scoring=scoring))
    if hasattr(engine, "run_sites"):
        return engine
    raise TypeError(
        "engine must be an EngineConfig or an object with run_sites()"
    )
