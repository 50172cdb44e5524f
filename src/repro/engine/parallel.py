"""Chunked execution of independent realignment sites: one entry point.

Realignment sites are embarrassingly parallel -- target creation
guarantees a read belongs to at most one site -- so
:meth:`Engine.run_sites` consults the site-result cache, cuts the
misses into fixed-size chunks and runs them inline (one worker, or one
chunk) or on the unit threads. The pool runs the paper's asynchronous
schedule: every chunk is queued at once, and whichever unit is free
takes the next one, so stragglers (sites are Zipf-like in size) do not
serialize the tail. The results are returned in chunk order, so the
output -- and the final SAM -- is byte-identical to the serial path at
any worker count or completion order (pinned against
``tests/golden/``). Every real caller holds its whole site list, so
the results are held too: no window bounds them.

The workers are the paper's units: ``workers`` threads in this process
sharing one memory, like the 32 IR units share the FPGA's DRAM. The
compiled kernel is one ``ctypes`` call per site and releases the GIL
for its length, and the numpy kernels release it for their large array
ops, so the threads run the kernels in parallel with no fork, no pickle
and no copy of the sites. A chunk computes a pure function of its
sites, so a chunk that raises would raise again: its exception leaves
:meth:`Engine.run_sites` as soon as it is raised, the chunks not yet
started never start, and the ones that completed are still recorded
(docs/RESILIENCE.md, "Host data plane: errors propagate").

Workers run each site through
:func:`repro.engine.autotune.dispatch_realign` and count telemetry into
a per-chunk sink; the engine folds the counters into its session when
the run ends and records one wall-clock span per chunk
(:func:`record_engine_shards`), so a Chrome trace shows the chunks
overlapping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    deltas into its real telemetry session after the run, on the
    calling thread, so no session is shared between worker threads.
    """

    def __init__(self):
        self.counters: Dict[str, int] = {}

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(delta)


def _realign_chunk(
    chunk_id: int, sites: Sequence[RealignmentSite], config: EngineConfig,
    failed=None,
) -> Optional[Tuple[int, List[SiteResult], float, float, Dict[str, int]]]:
    """Realign one chunk (shared by the pool and the inline path).

    The returned ``perf_counter`` timestamps let the engine lay every
    worker's shards on one timeline. ``failed``, the pooled run's
    event, is checked before each site: once another chunk of the run
    has raised, this one stops and returns ``None``.
    """
    start = time.perf_counter()
    sink = _CounterSink()
    results = []
    for site in sites:
        if failed is not None and failed.is_set():
            return None
        results.append(dispatch_realign(
            site,
            kernel=config.kernel,
            scoring=config.scoring,
            telemetry=sink,
        ))
    return chunk_id, results, start, time.perf_counter(), sink.counters


def record_engine_shards(telemetry, shards: Sequence[ShardStats],
                         origin: float, workers: int) -> None:
    """Record an engine run as a span timeline (one track per chunk).

    Each chunk becomes one ``CAT_ENGINE`` span ``"shard N (S sites)"``
    on the track ``"engine shard N"``, offset from ``origin`` (the run's
    start on the same ``perf_counter`` clock), so a Chrome trace shows
    chunks overlapping across workers. Engine timelines tick in
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


class Engine:
    """Batched parallel realignment over a list of independent sites.

    The ``workers`` threads are started on the first pooled run (two or
    more workers and more than one chunk) and persist across runs, so
    create the engine once and reuse it; ``workers=1`` never starts a
    thread. Usable as a context manager; :meth:`close` joins the
    threads, and garbage collection does too.

    ``cache`` (a :class:`~repro.shard.cache.SiteResultCache`) is
    consulted once per run, in front of chunking: hits never reach a
    chunk, misses are inserted once their chunks complete, and the
    output is the same with or without it (docs/SHARDING.md).
    """

    def __init__(self, config: Optional[EngineConfig] = None, cache=None):
        self.config = config if config is not None else EngineConfig()
        self.cache = cache
        #: Both always empty, and read only by the end-to-end
        #: benchmark's pool and stream probes: a failing chunk raises,
        #: nothing is recovered, and there is no window to observe.
        #: They go with the probes (ROADMAP 1(a)).
        self.recovery_counters: Dict[str, int] = {}
        self.stream_stats: Dict[str, int] = {}
        #: One record per completed chunk of the latest run, by chunk id.
        self.shard_stats: List[ShardStats] = []
        self._executor = None

    def run_sites(
        self,
        sites: Sequence[RealignmentSite],
        telemetry=None,
    ) -> List[SiteResult]:
        """Realign ``sites``; results align index-for-index with input.

        This is the one place the cache is consulted: hits are taken
        from it, only the misses are chunked, and each fresh result is
        inserted. A run of nothing but hits dispatches nothing and
        leaves ``shard_stats`` empty.
        """
        self.shard_stats = []
        if self.cache is None:
            return self._dispatch(list(sites), telemetry)
        # Whoever built the cache has imported its module already; a
        # cache-less run never loads it.
        from repro.shard.cache import lookup_sites

        results, misses, keys = lookup_sites(self.cache, sites, self.config)
        if telemetry is not None:
            telemetry.count("engine.cache_hits", len(sites) - len(misses))
            telemetry.count("engine.cache_misses", len(misses))
        fresh = self._dispatch([sites[index] for index in misses], telemetry)
        for index, result in zip(misses, fresh):
            results[index] = result
            self.cache.put(keys[index], sites[index].start, result)
        return results

    def _dispatch(
        self,
        sites: List[RealignmentSite],
        telemetry,
    ) -> List[SiteResult]:
        """Contiguous ``config.batch``-site chunks of ``sites``, run
        inline or on the unit threads; results in input order."""
        if not sites:
            return []
        run_start = time.perf_counter()
        batch = self.config.batch
        chunks = [sites[lo:lo + batch] for lo in range(0, len(sites), batch)]
        try:
            if self.config.workers == 1 or len(chunks) == 1:
                results: List[SiteResult] = []
                for chunk_id, chunk in enumerate(chunks):
                    outcome = _realign_chunk(chunk_id, chunk, self.config)
                    self._file_outcome(outcome)
                    results.extend(outcome[1])
                return results
            return self._pooled(chunks)
        finally:
            # Also on failure: the chunks that completed are observed.
            self._finish(telemetry, run_start)

    def _pooled(self, chunks: List[List[RealignmentSite]]) -> List[SiteResult]:
        """Every chunk to the unit threads, each taken by whichever unit
        is free; results in chunk order.

        The wait returns at the first exception, so a failing chunk
        raises at once, not after every chunk before it (which is why
        this is not ``Executor.map``). After a failure the chunks still
        queued are cancelled, and a running chunk stops before its next
        site, so the next run on this engine does not queue behind
        them.
        """
        import threading
        from concurrent.futures import FIRST_EXCEPTION, wait

        failed = threading.Event()

        def run(chunk_id, chunk):
            try:
                return _realign_chunk(chunk_id, chunk, self.config, failed)
            except BaseException:
                failed.set()
                raise

        executor = self._ensure_executor()
        futures = [executor.submit(run, chunk_id, chunk)
                   for chunk_id, chunk in enumerate(chunks)]
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        for future in pending:
            future.cancel()
        outcomes = [future.result() for future in futures
                    if future in done and future.exception() is None]
        for outcome in filter(None, outcomes):
            self._file_outcome(outcome)
        for future in futures:
            if future in done and future.exception() is not None:
                raise future.exception()
        return [result for outcome in outcomes for result in outcome[1]]

    def _file_outcome(self, outcome) -> None:
        chunk_id, results, start, end, counters = outcome
        self.shard_stats.append(ShardStats(
            shard=chunk_id, sites=len(results),
            start=start, end=end, counters=counters,
        ))

    def _finish(self, telemetry, run_start: float) -> None:
        """Fold the run's chunk records into ``telemetry``."""
        if telemetry is None:
            return
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


def resolve_engine(engine):
    """The live engine an ``engine=`` argument names.

    An :class:`EngineConfig` becomes a new :class:`Engine`; anything
    with the ``run_sites`` contract (an engine, the FPGA model, a test
    fake) is used as is. The score method is the engine's own.
    """
    if isinstance(engine, EngineConfig):
        return Engine(engine)
    if hasattr(engine, "run_sites"):
        return engine
    raise TypeError(
        "engine must be an EngineConfig or an object with run_sites()"
    )
