"""Fault tolerance for the host data plane (the worker process pool).

PR 1 made the *simulated accelerator* plane fault-tolerant; this module
does the same for the real multiprocess host plane -- it is the one
worker pool :class:`repro.engine.parallel.Engine` and
:class:`repro.engine.stream.StreamingEngine` run on. On a cloud fleet,
host-side failure is the steady state -- spot preemption, OOM-killed
workers, hung processes -- and an unprotected pool turns each of them
into a run-wide outage: a worker SIGKILLed mid-chunk silently loses the
chunk's result and the in-flight window blocks forever, a broken pool
aborts the run.

The machinery mirrors the accelerator-side design piece for piece:

- :class:`WorkerFaultPlan` is the chaos injector -- the same seeded,
  order-independent keyed-generator design as
  :class:`~repro.resilience.faults.FaultPlan`, with a taxonomy of four
  worker faults (SIGKILL, hang, delay, error) drawn per
  ``(chunk, offset, attempt)`` plus scripted overrides so a test can
  kill a worker at a *chosen* chunk;
- :class:`WorkerRecovery` is the policy (fault plan, per-chunk
  deadline, the existing :class:`~repro.resilience.policy.RetryPolicy`
  for backoff), with fault-free defaults the ``REPRO_*`` environment
  overlays;
- :class:`ResilientPool` is the recovery engine: a watchdog thread
  arms a deadline per dispatched chunk, detects lost results (hung or
  killed workers), resubmits under retry/backoff, respawns the pool on
  ``BrokenProcessPool``, **bisects** chunks that fail repeatedly, and
  finally quarantines unrecoverable single-site chunks to the inline
  serial realigner in the parent -- mirroring unit quarantine's drain
  to the software fallback, so output stays byte-identical to a
  fault-free run no matter what was injected.

Recovery is observable: ``worker.*`` counters (injections by kind,
deadline expirations, retries, bisections, quarantines, pool respawns)
and one ``CAT_RECOVERY`` span per recovery action
(:func:`record_recovery_spans`), next to the ``CAT_STREAM`` /
``CAT_ENGINE`` chunk timelines. See docs/RESILIENCE.md ("Host data
plane fault model").
"""

from __future__ import annotations

import enum
import logging
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.native import env_number
from repro.resilience.faults import keyed_draw
from repro.resilience.policy import RetryPolicy

logger = logging.getLogger(__name__)


class WorkerFaultKind(enum.Enum):
    """Everything the chaos layer can do to a worker process."""

    KILL = "worker-kill"      # SIGKILL mid-chunk: result lost, pool broken
    HANG = "worker-hang"      # worker wedges (sleeps) holding the chunk
    DELAY = "worker-delay"    # chunk completes, but late (deadline races)
    ERROR = "worker-error"    # chunk raises InjectedWorkerError


#: The worker-fault kinds, in cumulative-draw order.
WORKER_FAULT_KINDS = (
    WorkerFaultKind.KILL,
    WorkerFaultKind.HANG,
    WorkerFaultKind.DELAY,
    WorkerFaultKind.ERROR,
)


class InjectedWorkerError(RuntimeError):
    """The error a chaos-planned ERROR fault raises inside a worker."""


@dataclass(frozen=True)
class WorkerFaultEvent:
    """One injected worker fault: what strikes which dispatch attempt.

    ``magnitude`` carries the kind-specific parameter in *seconds*: the
    sleep for ``DELAY`` and ``HANG``, 0 otherwise. ``lo`` is the site
    offset inside the chunk (non-zero only for bisected sub-chunks), so
    a bisected half draws independently of its parent chunk.
    """

    kind: WorkerFaultKind
    chunk: int
    attempt: int
    lo: int = 0
    magnitude: float = 0.0


@dataclass(frozen=True)
class ForcedWorkerFault:
    """A scripted fault: strike exactly this dispatch attempt.

    Regression tests use these to place one specific fault -- "SIGKILL
    the worker holding chunk 2 on its first attempt" -- instead of
    relying on rates to produce it.
    """

    chunk: int
    attempt: int
    kind: WorkerFaultKind
    lo: int = 0
    magnitude: float = 0.0


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A seeded, order-independent schedule of worker faults.

    Rates are per-dispatch-attempt probabilities and must sum to at
    most 1. Every decision is a :func:`~repro.resilience.faults.keyed_draw`
    over ``(seed, "worker", chunk, lo, attempt)``, so the same plan
    answers the same way however many times -- and in whatever order --
    the recovery machinery asks, and a chaos run replays exactly from
    one ``--chaos-seed``. ``forced`` entries win over the rate draw for
    their exact ``(chunk, lo, attempt)`` key.

    >>> plan = WorkerFaultPlan.chaos(seed=7, rate=0.5)
    >>> outcome = plan.chunk_outcome(3, 0, 0)
    >>> outcome == plan.chunk_outcome(3, 0, 0)  # order-independent
    True
    >>> WorkerFaultPlan.none().chunk_outcome(3, 0, 0) is None
    True
    >>> scripted = WorkerFaultPlan.scripted(
    ...     ForcedWorkerFault(chunk=2, attempt=0, kind=WorkerFaultKind.KILL))
    >>> scripted.chunk_outcome(2, 0, 0).kind
    <WorkerFaultKind.KILL: 'worker-kill'>
    >>> scripted.chunk_outcome(2, 0, 1) is None  # the retry succeeds
    True
    """

    seed: int = 0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    delay_rate: float = 0.0
    error_rate: float = 0.0
    delay_range: Tuple[float, float] = (0.005, 0.05)
    hang_seconds: float = 60.0
    forced: Tuple[ForcedWorkerFault, ...] = ()

    def __post_init__(self) -> None:
        for name in ("kill_rate", "hang_rate", "delay_rate", "error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.worker_fault_rate > 1.0:
            raise ValueError("worker fault rates sum past 1")
        lo, hi = self.delay_range
        if not 0.0 <= lo <= hi:
            raise ValueError("delay range must be non-negative and ordered")
        if self.hang_seconds <= 0.0:
            raise ValueError("hang_seconds must be positive")

    # -- construction ---------------------------------------------------
    @classmethod
    def none(cls) -> "WorkerFaultPlan":
        """The fault-free plan (every query answers 'no fault')."""
        return cls(seed=0)

    @classmethod
    def chaos(cls, seed: int, rate: float, **overrides) -> "WorkerFaultPlan":
        """Spread one scalar ``rate`` over the worker-fault taxonomy.

        ``rate`` is the per-attempt probability that a chunk dispatch
        faults, split kill 25% / hang 15% / delay 30% / error 30% --
        kills and hangs are the expensive recoveries (broken pool,
        deadline wait), so they get the smaller shares, matching the
        spot-fleet intuition that most failures are transient.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        return cls(
            seed=seed,
            kill_rate=0.25 * rate,
            hang_rate=0.15 * rate,
            delay_rate=0.30 * rate,
            error_rate=0.30 * rate,
            **overrides,
        )

    @classmethod
    def scripted(cls, *faults: ForcedWorkerFault, seed: int = 0,
                 **overrides) -> "WorkerFaultPlan":
        """A plan that strikes exactly the given dispatch attempts."""
        return cls(seed=seed, forced=tuple(faults), **overrides)

    # -- aggregate rates ------------------------------------------------
    @property
    def worker_fault_rate(self) -> float:
        return (self.kill_rate + self.hang_rate
                + self.delay_rate + self.error_rate)

    @property
    def is_fault_free(self) -> bool:
        return self.worker_fault_rate == 0.0 and not self.forced

    # -- deterministic draws --------------------------------------------
    def draw(self, domain: str, *key: int) -> float:
        """One uniform [0, 1) draw keyed by ``(seed, domain, *key)``."""
        return keyed_draw(self.seed, domain, *key)

    def chunk_outcome(
        self, chunk: int, lo: int, attempt: int
    ) -> Optional[WorkerFaultEvent]:
        """Does this chunk dispatch attempt fault in its worker, and how?

        One cumulative draw selects among the four kinds so their
        probabilities are exact and mutually exclusive; magnitudes are
        resolved here (not in the worker) so the parent can *predict*
        every injection for telemetry from the same plan.
        """
        for forced in self.forced:
            if (forced.chunk, forced.lo, forced.attempt) == (chunk, lo,
                                                             attempt):
                return WorkerFaultEvent(
                    kind=forced.kind, chunk=chunk, lo=lo, attempt=attempt,
                    magnitude=self._magnitude(forced.kind, chunk, lo,
                                              attempt, forced.magnitude),
                )
        if self.worker_fault_rate == 0.0:
            return None
        u = self.draw("worker", chunk, lo, attempt)
        edge = 0.0
        for kind, rate in zip(
            WORKER_FAULT_KINDS,
            (self.kill_rate, self.hang_rate, self.delay_rate,
             self.error_rate),
        ):
            edge += rate
            if u < edge:
                return WorkerFaultEvent(
                    kind=kind, chunk=chunk, lo=lo, attempt=attempt,
                    magnitude=self._magnitude(kind, chunk, lo, attempt, 0.0),
                )
        return None

    def _magnitude(self, kind: WorkerFaultKind, chunk: int, lo: int,
                   attempt: int, forced_magnitude: float) -> float:
        if forced_magnitude > 0.0:
            return forced_magnitude
        if kind is WorkerFaultKind.HANG:
            return self.hang_seconds
        if kind is WorkerFaultKind.DELAY:
            low, high = self.delay_range
            return low + (high - low) * self.draw("worker-delay", chunk,
                                                  lo, attempt)
        return 0.0


def perform_fault(event: WorkerFaultEvent) -> None:
    """Execute one planned fault inside a worker process."""
    if event.kind is WorkerFaultKind.KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    elif event.kind in (WorkerFaultKind.HANG, WorkerFaultKind.DELAY):
        time.sleep(event.magnitude)
    elif event.kind is WorkerFaultKind.ERROR:
        raise InjectedWorkerError(
            f"injected error in chunk {event.chunk} (offset {event.lo}, "
            f"attempt {event.attempt})"
        )


@dataclass(frozen=True)
class WorkerRecovery:
    """Everything host data-plane recovery needs, in one value.

    Every pooled engine run is governed by one of these; the defaults
    are fault-free under a 30 s chunk deadline.
    ``chunk_deadline`` is the wall-clock seconds a chunk may stay
    unanswered, once a worker has been handed it, before the watchdog
    declares it lost; it must
    comfortably exceed the slowest real chunk, but a too-tight deadline
    only costs duplicate work -- late results are still accepted, so
    output never changes. ``cycle_seconds`` scales the shared
    :class:`~repro.resilience.policy.RetryPolicy` cycle schedule onto
    the host's wall clock.

    Environment (read by :meth:`from_env`, which the engines call when
    no explicit recovery is given -- this is how CI runs the whole
    tier-1 suite under injected worker faults); each variable only
    sets its value, none switches anything on:

    - ``REPRO_WORKER_FAULT_RATE``: scalar chaos rate in [0, 1] for
      :meth:`WorkerFaultPlan.chaos`;
    - ``REPRO_CHAOS_SEED``: the plan seed (default 0);
    - ``REPRO_CHUNK_DEADLINE``: per-chunk deadline seconds;
    - ``REPRO_WORKER_HANG_SECONDS``: how long an injected hang sleeps.
    """

    plan: WorkerFaultPlan = field(default_factory=WorkerFaultPlan.none)
    retry: RetryPolicy = RetryPolicy()
    chunk_deadline: float = 30.0
    cycle_seconds: float = 1e-6
    watchdog_tick: float = 0.02

    def __post_init__(self) -> None:
        if self.chunk_deadline <= 0.0:
            raise ValueError("chunk_deadline must be positive")
        if self.cycle_seconds <= 0.0:
            raise ValueError("cycle_seconds must be positive")
        if self.watchdog_tick <= 0.0:
            raise ValueError("watchdog_tick must be positive")

    @classmethod
    def chaos(cls, seed: int, rate: float, **overrides) -> "WorkerRecovery":
        """Default recovery policies over a scalar-rate chaos plan."""
        return cls(plan=WorkerFaultPlan.chaos(seed, rate), **overrides)

    @classmethod
    def from_env(cls, env=None) -> "WorkerRecovery":
        """The defaults, overlaid by whatever the environment sets (a
        malformed value is :func:`~repro.engine.native.env_number`'s
        ``ValueError``)."""
        seconds = (lambda s: 0.0 < s < float("inf"),
                   "a positive number of seconds", env)
        rate = env_number("REPRO_WORKER_FAULT_RATE", float, 0.0,
                          lambda r: 0.0 <= r <= 1.0, "a number in [0, 1]",
                          env)
        seed = env_number("REPRO_CHAOS_SEED", int, 0, lambda n: True,
                          "an integer", env)
        deadline = env_number("REPRO_CHUNK_DEADLINE", float,
                              cls.chunk_deadline, *seconds)
        hang = env_number("REPRO_WORKER_HANG_SECONDS", float,
                          WorkerFaultPlan.hang_seconds, *seconds)
        return cls(plan=WorkerFaultPlan.chaos(seed, rate, hang_seconds=hang),
                   chunk_deadline=deadline)

    def completion_bound_seconds(self, batch: int, chunks: int) -> float:
        """A generous upper bound on one run's recovery time.

        Exceeding it means the recovery machinery itself deadlocked (a
        bug), so the engines use it as a backstop timeout that turns a
        silent hang into a loud :class:`ResilienceError`.
        """
        tree = 2 * max(1, batch)  # bisection tree nodes per chunk, + slack
        attempts = self.retry.max_attempts + 1
        return max(300.0,
                   self.chunk_deadline * attempts * tree * max(1, chunks))


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery action on the host plane (becomes a CAT_RECOVERY span)."""

    name: str
    start: float
    end: float
    chunk: int = -1
    attempt: int = 0


def record_recovery_spans(telemetry, events: Sequence[RecoveryEvent],
                          origin: Optional[float] = None) -> None:
    """Record recovery actions as ``CAT_RECOVERY`` spans on one track.

    Companion to :func:`repro.perf.fleet.record_engine_shards`: events
    land on a single ``worker recovery`` track, offset from ``origin``
    on the shared ``perf_counter`` clock, so a Chrome trace shows each
    kill/retry/quarantine next to the chunk timeline it disrupted.
    Zero-length events (an instantaneous resubmit) still export -- the
    trace writer floors span durations at 1 us.
    """
    from repro.telemetry.spans import CAT_RECOVERY

    if telemetry is None or not events:
        return
    if telemetry.ticks_per_second is None:
        telemetry.ticks_per_second = 1.0
    base = origin if origin is not None else min(e.start for e in events)
    for event in events:
        telemetry.span(
            event.name, "worker recovery",
            max(0.0, event.start - base), max(0.0, event.end - base),
            CAT_RECOVERY, chunk=event.chunk, attempt=event.attempt,
        )
    telemetry.count("worker.recovery_spans", len(events))


# -- worker-side entry points -------------------------------------------

#: The fault plan installed in each pool worker by the initializer
#: (None in the parent and in fault-free workers).
_WORKER_FAULT_PLAN: Optional[WorkerFaultPlan] = None


def _init_resilient_worker(config, plan) -> None:
    """Pool initializer: engine config plus the fault plan."""
    global _WORKER_FAULT_PLAN
    from repro.engine import parallel

    parallel._init_worker(config)
    _WORKER_FAULT_PLAN = None if plan.is_fault_free else plan


@dataclass(frozen=True)
class _WorkerTask:
    """One dispatch payload: a chunk (or bisected slice) of sites,
    pickled into the task on first attempt and retry alike."""

    chunk_id: int
    lo: int
    attempt: int
    sites: Tuple


def _run_resilient_task(task: _WorkerTask):
    """Worker entry point: maybe fault, then realign the task's sites."""
    from repro.engine import parallel

    if _WORKER_FAULT_PLAN is not None:
        event = _WORKER_FAULT_PLAN.chunk_outcome(task.chunk_id, task.lo,
                                                 task.attempt)
        if event is not None:
            perform_fault(event)
    _chunk_id, results, start, end, counters = parallel._realign_chunk(
        task.chunk_id, task.sites, parallel._WORKER_CONFIG
    )
    return (task.chunk_id, task.lo, len(task.sites), results, start, end,
            counters)


# -- parent-side recovery machinery -------------------------------------


@dataclass
class _TaskState:
    """Parent-side record of one dispatchable slice of one chunk."""

    chunk_id: int
    lo: int
    sites: List
    attempt: int = 0        # next attempt number to dispatch
    epoch: int = 0          # bumps per (re)dispatch; stale futures ignored
    dispatched: bool = False
    future: Optional[object] = None  # the live dispatch, while dispatched
    dispatched_at: float = 0.0
    deadline: float = float("inf")
    not_before: float = 0.0
    quarantined: bool = False
    running_inline: bool = False

    @property
    def key(self) -> Tuple[int, int]:
        return (self.chunk_id, self.lo)


@dataclass
class _ChunkState:
    """Parent-side record of one submitted chunk's assembly."""

    chunk_id: int
    num_sites: int
    on_done: Callable
    parts: Dict[int, Tuple] = field(default_factory=dict)
    covered: set = field(default_factory=set)
    recovered: bool = False
    done: bool = False


def _teardown_executor(executor, join_timeout: float = 1.0) -> None:
    """Kill an executor's workers (hung ones included) and shut it down."""
    processes = list(getattr(executor, "_processes", {}).values())
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in processes:
        try:
            process.join(join_timeout)
        except Exception:  # pragma: no cover - platform dependent
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass


class ResilientPool:
    """A process pool that survives killed, hung, and erroring workers.

    Chunks submitted via :meth:`submit_chunk` are dispatched to a
    ``ProcessPoolExecutor`` and delivered to ``on_done`` exactly once,
    as the same ``(chunk_id, results, start, end, counters)`` outcome
    tuple the inline path produces -- so
    :meth:`repro.engine.parallel.Engine.stream_sites` consumes
    recovered and untouched chunks identically. Recovery is layered:

    1. **deadline watchdog** -- every dispatched chunk gets
       ``chunk_deadline`` seconds from the moment the executor hands it
       to a worker (time queued behind other chunks is free, so a run
       may outlast the deadline many times over); an overdue chunk is
       presumed lost (hung or killed worker) and resubmitted with
       backoff. The old
       attempt's result is *still accepted if it arrives first* --
       first completion wins, duplicates are dropped -- so a deadline
       that fires on a merely-slow chunk costs duplicate work, never
       correctness.
    2. **broken-pool respawn** -- a SIGKILLed worker breaks the whole
       executor (every pending future fails); the watchdog kills the
       carcass, forks a fresh executor, and resubmits everything that
       was in flight. Repeated deadline expiries with no completions
       (all workers hung) force the same respawn.
    3. **bisect + quarantine** -- a chunk that exhausts
       ``retry.max_attempts`` is split in half and the halves retried
       as independent tasks (fresh fault-plan keys); a single site that
       still cannot complete is quarantined to the inline serial
       realigner in the parent process, mirroring unit quarantine's
       software fallback. Results reassemble in site order, so output
       is byte-identical however a chunk was recovered.

    Real (non-injected) worker exceptions ride the same escalation and
    surface from the quarantine path with their genuine traceback.
    """

    def __init__(self, config, recovery: WorkerRecovery):
        self.config = config
        self.recovery = recovery
        self._lock = threading.RLock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._tasks: Dict[Tuple[int, int], _TaskState] = {}
        self._chunks: Dict[int, _ChunkState] = {}
        self._counters: Dict[str, int] = {}
        self._events: List[RecoveryEvent] = []
        self._expiries_since_completion = 0
        self._broken = False
        self._closed = False
        self._stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None

    # -- public API -----------------------------------------------------
    def begin_run(self) -> None:
        """Forget any state left by an abandoned previous run."""
        with self._lock:
            for task in self._tasks.values():
                task.epoch += 1
            self._tasks.clear()
            self._chunks.clear()
            self._counters.clear()
            self._events.clear()
            self._expiries_since_completion = 0

    def submit_chunk(self, chunk_id: int, sites: Sequence,
                     on_done: Callable) -> None:
        """Submit one chunk; ``on_done`` receives its outcome tuple once.

        On unrecoverable failure (a genuine bug surfacing through the
        quarantine path), ``on_done`` receives the exception object
        instead -- callers re-raise it.
        """
        if not sites:
            raise ValueError("cannot submit an empty chunk")
        self._ensure_watchdog()
        with self._lock:
            if self._closed:
                raise RuntimeError("ResilientPool is closed")
            if chunk_id in self._chunks:
                raise ValueError(f"chunk {chunk_id} already submitted")
            now = time.perf_counter()
            self._chunks[chunk_id] = _ChunkState(
                chunk_id=chunk_id, num_sites=len(sites), on_done=on_done,
            )
            task = _TaskState(chunk_id=chunk_id, lo=0, sites=list(sites))
            self._tasks[task.key] = task
            self._dispatch_locked(task, now)

    def drain(self) -> Tuple[Dict[str, int], List[RecoveryEvent]]:
        """Pop the accumulated recovery counters and events."""
        with self._lock:
            counters, self._counters = self._counters, {}
            events, self._events = list(self._events), []
        return counters, events

    def close(self) -> None:
        """Stop the watchdog and kill the executor (hung workers too)."""
        self._stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
            self._watchdog = None
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
            for task in self._tasks.values():
                task.epoch += 1
            self._tasks.clear()
            self._chunks.clear()
        if executor is not None:
            _teardown_executor(executor)

    # -- internals ------------------------------------------------------
    def _count(self, name: str, delta: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    def _event(self, name: str, start: float, end: float, chunk: int = -1,
               attempt: int = 0) -> None:
        self._events.append(RecoveryEvent(name=name, start=start, end=end,
                                          chunk=chunk, attempt=attempt))

    def _ensure_watchdog(self) -> None:
        if self._watchdog is None or not self._watchdog.is_alive():
            self._stop.clear()
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-worker-watchdog", daemon=True,
            )
            self._watchdog.start()

    def _ensure_executor_locked(self) -> Optional[ProcessPoolExecutor]:
        if self._broken:
            return None
        if self._executor is None:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=ctx,
                initializer=_init_resilient_worker,
                initargs=(self.config, self.recovery.plan),
            )
        return self._executor

    def _dispatch_locked(self, task: _TaskState, now: float) -> None:
        """Submit one task to the executor (lock held)."""
        if self._tasks.get(task.key) is not task or task.dispatched \
                or task.quarantined:
            return
        executor = self._ensure_executor_locked()
        if executor is None:
            return  # broken; the watchdog respawns and retries
        plan = self.recovery.plan
        injected = plan.chunk_outcome(task.chunk_id, task.lo, task.attempt)
        if injected is not None:
            # The parent predicts the injection from the shared plan --
            # a SIGKILLed worker cannot report its own death.
            self._count(f"worker.injected.{injected.kind.value}")
        payload = _WorkerTask(chunk_id=task.chunk_id, lo=task.lo,
                              attempt=task.attempt, sites=tuple(task.sites))
        try:
            future = executor.submit(_run_resilient_task, payload)
        except (BrokenProcessPool, RuntimeError):
            self._broken = True
            return
        task.dispatched = True
        task.future = future
        task.dispatched_at = now
        task.deadline = now + self.recovery.chunk_deadline
        future.add_done_callback(
            lambda f, key=task.key, epoch=task.epoch:
                self._on_future(key, epoch, f)
        )

    def _on_future(self, key, epoch: int, future) -> None:
        """Executor callback: file a completion or escalate a failure."""
        try:
            if future.cancelled():
                return
            error = future.exception()
        except CancelledError:  # pragma: no cover - shutdown race
            return
        with self._lock:
            if self._closed:
                return
            if error is None:
                self._accept_locked(future.result())
                return
            task = self._tasks.get(key)
            if task is None or not task.dispatched or task.epoch != epoch:
                return  # a stale attempt we already gave up on
            if isinstance(error, BrokenProcessPool):
                # One broken future means the whole pool is gone; flag
                # it once and let the watchdog respawn + resubmit every
                # in-flight task (this callback runs on the dying
                # executor's own manager thread, which must not join it).
                self._broken = True
                return
            now = time.perf_counter()
            self._count("worker.errors")
            self._event(
                f"error chunk {task.chunk_id}"
                + (f"+{task.lo}" if task.lo else ""),
                task.dispatched_at, now, chunk=task.chunk_id,
                attempt=task.attempt,
            )
            self._fail_locked(task, now, error=error)

    def _accept_locked(self, outcome) -> None:
        """File one completed slice; first completion wins per site."""
        chunk_id, lo, n, results, start, end, counters = outcome
        chunk = self._chunks.get(chunk_id)
        if chunk is None or chunk.done:
            self._count("worker.late_results")
            return
        covered = set(range(lo, lo + n))
        if covered & chunk.covered:
            self._count("worker.late_results")
            return
        chunk.covered |= covered
        chunk.parts[lo] = (results, start, end, counters)
        self._expiries_since_completion = 0
        # Retire any task (the completing one, or sub-tasks subsumed by
        # a late full-chunk result) whose whole range is now covered.
        for task_key, task in list(self._tasks.items()):
            if task.chunk_id != chunk_id:
                continue
            span = range(task.lo, task.lo + len(task.sites))
            if all(index in chunk.covered for index in span):
                task.epoch += 1
                del self._tasks[task_key]
        if len(chunk.covered) == chunk.num_sites:
            self._deliver_locked(chunk)

    def _deliver_locked(self, chunk: _ChunkState) -> None:
        chunk.done = True
        del self._chunks[chunk.chunk_id]
        parts = [chunk.parts[lo] for lo in sorted(chunk.parts)]
        results = [result for part in parts for result in part[0]]
        merged: Dict[str, int] = {}
        for part in parts:
            for name, value in part[3].items():
                merged[name] = merged.get(name, 0) + value
        if chunk.recovered:
            merged["worker.chunks_recovered"] = (
                merged.get("worker.chunks_recovered", 0) + 1
            )
        start = min(part[1] for part in parts)
        end = max(part[2] for part in parts)
        chunk.on_done((chunk.chunk_id, results, start, end, merged))

    def _abort_locked(self, chunk_id: int, error: BaseException) -> None:
        """Deliver a genuine failure (quarantine path raised) upward."""
        chunk = self._chunks.get(chunk_id)
        if chunk is None or chunk.done:
            return
        chunk.done = True
        del self._chunks[chunk_id]
        for task_key, task in list(self._tasks.items()):
            if task.chunk_id == chunk_id:
                task.epoch += 1
                del self._tasks[task_key]
        chunk.on_done(error)

    def _fail_locked(self, task: _TaskState, now: float,
                     error: Optional[BaseException] = None) -> None:
        """Escalate one failed dispatch: retry, bisect, or quarantine."""
        task.epoch += 1
        task.dispatched = False
        task.deadline = float("inf")
        chunk = self._chunks.get(task.chunk_id)
        if chunk is None:
            self._tasks.pop(task.key, None)
            return
        chunk.recovered = True
        task.attempt += 1
        if task.attempt < self.recovery.retry.max_attempts:
            self._count("worker.retries")
            backoff = self.recovery.retry.backoff_seconds(
                task.attempt - 1, self.recovery.plan,
                target=task.chunk_id * 4096 + task.lo,
                cycle_seconds=self.recovery.cycle_seconds,
            )
            task.not_before = now + backoff
            return
        if len(task.sites) > 1:
            # Poison chunk: bisect and retry the halves independently
            # (fresh (chunk, lo) fault-plan keys and attempt budgets).
            self._count("worker.bisects")
            self._event(
                f"bisect chunk {task.chunk_id}"
                + (f"+{task.lo}" if task.lo else ""),
                now, now, chunk=task.chunk_id, attempt=task.attempt,
            )
            del self._tasks[task.key]
            mid = len(task.sites) // 2
            for lo, part in ((task.lo, task.sites[:mid]),
                             (task.lo + mid, task.sites[mid:])):
                child = _TaskState(chunk_id=task.chunk_id, lo=lo,
                                   sites=list(part))
                self._tasks[child.key] = child
                self._dispatch_locked(child, now)
            return
        # Unrecoverable single site: quarantine to the inline serial
        # realigner in the parent (the watchdog runs it outside the
        # lock), mirroring unit quarantine's software fallback.
        self._count("worker.quarantined_sites")
        self._event(
            f"quarantine chunk {task.chunk_id} site {task.lo}",
            now, now, chunk=task.chunk_id, attempt=task.attempt,
        )
        task.quarantined = True
        if error is not None:
            logger.warning(
                "site %d of chunk %d quarantined to inline realignment "
                "after %d attempts (last error: %s)",
                task.lo, task.chunk_id, task.attempt, error,
            )

    def _run_inline(self, task: _TaskState) -> None:
        """Quarantine fallback: realign one site serially in the parent."""
        from repro.engine import parallel

        start = time.perf_counter()
        try:
            _chunk_id, results, t0, t1, counters = parallel._realign_chunk(
                task.chunk_id, task.sites, self.config
            )
        except BaseException as error:
            with self._lock:
                self._abort_locked(task.chunk_id, error)
            return
        with self._lock:
            self._event(
                f"inline chunk {task.chunk_id} site {task.lo}",
                start, time.perf_counter(), chunk=task.chunk_id,
                attempt=task.attempt,
            )
            self._accept_locked((task.chunk_id, task.lo, len(task.sites),
                                 results, t0, t1, counters))

    def _watch(self) -> None:
        while not self._stop.wait(self.recovery.watchdog_tick):
            try:
                self._tick()
            except Exception:  # pragma: no cover - watchdog must survive
                logger.exception("worker-recovery watchdog tick failed")

    def _tick(self) -> None:
        teardown = None
        inline: List[_TaskState] = []
        with self._lock:
            if self._closed:
                return
            now = time.perf_counter()
            for task in list(self._tasks.values()):
                if not task.dispatched:
                    continue
                if not (task.future.running() or task.future.done()):
                    # Still queued in the executor: the deadline bounds
                    # time with a worker, not time waiting for one.
                    task.deadline = now + self.recovery.chunk_deadline
                elif now >= task.deadline:
                    self._count("worker.deadline_expired")
                    self._event(
                        f"deadline chunk {task.chunk_id}"
                        + (f"+{task.lo}" if task.lo else ""),
                        task.dispatched_at, now, chunk=task.chunk_id,
                        attempt=task.attempt,
                    )
                    self._expiries_since_completion += 1
                    self._fail_locked(task, now)
            if self._expiries_since_completion >= max(1, self.config.workers):
                # Every worker could be wedged -- force a fresh pool.
                self._broken = True
                self._expiries_since_completion = 0
            if self._broken:
                teardown, self._executor = self._executor, None
                self._broken = False
                self._count("worker.pool_respawns")
                self._event("respawn pool", now, time.perf_counter())
                # Every dispatched task's future died with the pool.
                for task in list(self._tasks.values()):
                    if task.dispatched:
                        self._count("worker.resubmitted")
                        self._fail_locked(task, now)
            for task in list(self._tasks.values()):
                if task.quarantined and not task.running_inline:
                    task.running_inline = True
                    inline.append(task)
            for task in list(self._tasks.values()):
                if (not task.dispatched and not task.quarantined
                        and now >= task.not_before):
                    self._dispatch_locked(task, now)
        if teardown is not None:
            _teardown_executor(teardown)
        for task in inline:
            self._run_inline(task)


__all__ = [
    "ForcedWorkerFault",
    "InjectedWorkerError",
    "RecoveryEvent",
    "ResilientPool",
    "WORKER_FAULT_KINDS",
    "WorkerFaultEvent",
    "WorkerFaultKind",
    "WorkerFaultPlan",
    "WorkerRecovery",
    "perform_fault",
    "record_recovery_spans",
]
