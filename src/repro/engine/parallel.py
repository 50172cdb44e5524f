"""Sharded multiprocess execution of independent realignment sites.

Realignment sites are embarrassingly parallel -- target creation
guarantees a read belongs to at most one site -- so the engine shards a
site list into fixed-size chunks and feeds them to a persistent
``multiprocessing`` pool via ``imap_unordered``: idle workers steal the
next pending chunk, so stragglers (sites are Zipf-like in size) do not
serialize the tail. Results come back tagged with their chunk index and
are merged in submission order, which makes the output -- and therefore
the final SAM -- byte-identical to the serial path regardless of worker
count or completion order (pinned against ``tests/golden/``).

Within a worker, each chunk's sites run through
:func:`repro.engine.autotune.dispatch_realign` on the kernel named by
``EngineConfig.kernel``, and the worker accumulates
telemetry counters locally; the parent folds counters into its own
telemetry session after the merge and records one wall-clock span per
shard (see :func:`repro.perf.fleet.record_engine_shards`), so a Chrome
trace shows the shards overlapping.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.autotune import KERNEL_CHOICES, dispatch_realign
from repro.engine.native import native_mode
from repro.realign.site import RealignmentSite
from repro.realign.whd import SCORING_METHODS, SiteResult


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

    @property
    def seconds(self) -> float:
        return self.end - self.start


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


def _run_chunk(payload) -> Tuple[int, List[SiteResult], float, float, Dict[str, int]]:
    """Worker entry point: realign one chunk of sites.

    Module-level (not a closure) so it pickles under both fork and
    spawn start methods. The payload carries only what varies per task
    -- ``(chunk_id, sites)``; the config comes from the initializer.
    """
    chunk_id, sites = payload
    return _realign_chunk(chunk_id, sites, _WORKER_CONFIG)


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


class Engine:
    """Batched parallel realignment over a list of independent sites.

    The worker pool is created lazily on the first multiprocess run and
    persists across :meth:`run_sites` calls (forking a pool costs tens
    of milliseconds -- far more than a warm task round-trip), so create
    the engine once and reuse it. Usable as a context manager; the pool
    is also reaped on garbage collection.

    ``recovery`` (a :class:`~repro.resilience.workers.WorkerRecovery`)
    switches multiprocess dispatch onto the fault-tolerant
    :class:`~repro.resilience.workers.ResilientPool`: per-chunk
    deadlines, retry/bisect/quarantine of lost chunks, pool respawn on
    worker death -- with byte-identical output. When ``None`` (the
    default), the environment is consulted
    (:meth:`~repro.resilience.workers.WorkerRecovery.from_env`), so CI
    can run any engine workload under injected chaos; with no relevant
    environment either, the original unrecovered pool path runs
    unchanged.
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 recovery=None):
        from repro.resilience.workers import WorkerRecovery

        self.config = config if config is not None else EngineConfig()
        self.recovery = (recovery if recovery is not None
                         else WorkerRecovery.from_env())
        self.shard_stats: List[ShardStats] = []  # from the latest run
        #: Recovery observations from the latest run (resilient mode).
        self.recovery_counters: Dict[str, int] = {}
        self.recovery_events: List = []
        self._pool = None
        self._rpool = None

    def run_sites(
        self,
        sites: Sequence[RealignmentSite],
        telemetry=None,
    ) -> List[SiteResult]:
        """Realign ``sites``; results align index-for-index with input.

        The merge is deterministic: shard results are reassembled in
        chunk-submission order, so the output is identical for any
        ``workers`` setting.
        """
        from repro.perf.fleet import record_engine_shards

        if not sites:
            self.shard_stats = []
            return []
        run_start = time.perf_counter()
        payloads = [
            (chunk_id, list(sites[lo : lo + self.config.batch]))
            for chunk_id, lo in enumerate(
                range(0, len(sites), self.config.batch)
            )
        ]
        if self.config.workers == 1 or len(payloads) == 1:
            outcomes = [
                _realign_chunk(chunk_id, chunk, self.config)
                for chunk_id, chunk in payloads
            ]
        elif self.recovery is not None:
            outcomes = self._run_recovered(payloads)
        else:
            pool = self._ensure_pool()
            outcomes = list(pool.imap_unordered(_run_chunk, payloads))

        by_chunk = {chunk_id: rest for chunk_id, *rest in outcomes}
        results: List[SiteResult] = []
        stats: List[ShardStats] = []
        merged: Dict[str, int] = {}
        for chunk_id, payload in enumerate(payloads):
            chunk_results, start, end, counters = by_chunk[chunk_id]
            results.extend(chunk_results)
            stats.append(ShardStats(
                shard=chunk_id, sites=len(payload[1]),
                start=start, end=end, counters=counters,
            ))
            for name, value in counters.items():
                merged[name] = merged.get(name, 0) + value
        self.shard_stats = stats
        self._fold_recovery(telemetry, run_start)
        if telemetry is not None:
            for name, value in merged.items():
                telemetry.count(name, value)
            record_engine_shards(telemetry, stats, origin=run_start,
                                 workers=self.config.workers)
        return results

    def _run_recovered(self, payloads):
        """Barrier dispatch over the fault-tolerant pool."""
        import queue as queue_module

        from repro.resilience.policy import ResilienceError

        rpool = self._ensure_rpool()
        rpool.begin_run()
        done: "queue_module.Queue" = queue_module.Queue()
        for chunk_id, chunk in payloads:
            rpool.submit_chunk(chunk_id, chunk, on_done=done.put)
        # Recovery guarantees forward progress; the bound only turns a
        # recovery-machinery bug from a silent hang into a loud error.
        bound = self.recovery.completion_bound_seconds(
            self.config.batch, len(payloads)
        )
        outcomes = []
        for _ in payloads:
            try:
                outcome = done.get(timeout=bound)
            except queue_module.Empty:
                raise ResilienceError(
                    "worker recovery made no progress within "
                    f"{bound:.0f}s ({len(outcomes)}/{len(payloads)} "
                    "chunks completed)"
                ) from None
            if isinstance(outcome, BaseException):
                raise outcome
            outcomes.append(outcome)
        return outcomes

    def _fold_recovery(self, telemetry, run_start: float) -> None:
        """Drain the resilient pool's observations into telemetry."""
        if self._rpool is None:
            return
        from repro.resilience.workers import record_recovery_spans

        counters, events = self._rpool.drain()
        self.recovery_counters = counters
        self.recovery_events = events
        if telemetry is not None:
            for name, value in counters.items():
                telemetry.count(name, value)
            record_recovery_spans(telemetry, events, origin=run_start)

    def _ensure_rpool(self):
        if self._rpool is None:
            from repro.resilience.workers import ResilientPool

            self._rpool = ResilientPool(self.config, self.recovery)
        return self._rpool

    def _ensure_pool(self):
        if self._pool is None:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = multiprocessing.get_context()
            self._pool = ctx.Pool(
                processes=self.config.workers,
                initializer=_init_worker,
                initargs=(self.config,),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
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
