"""Fault tolerance for the host data plane (the engine's unit threads).

PR 1 made the *simulated accelerator* plane fault-tolerant; this module
does the same for the host plane that
:class:`repro.engine.parallel.Engine` dispatches onto: ``workers``
threads in this process, each running whole chunks the way the paper's
IR units take whole targets.

An in-process unit can fail in two ways only: its chunk raises, or it
is late. (The compiled and numpy kernels are bounded loops, so nothing
hangs; a thread cannot be SIGKILLed on its own -- an OOM kill takes the
whole process.) The machinery for those two mirrors the
accelerator-side design:

- :class:`WorkerFaultPlan` is the chaos injector -- the same seeded,
  order-independent keyed-generator design as
  :class:`~repro.resilience.faults.FaultPlan`, with the two unit faults
  (delay, error) drawn per ``(chunk, offset, attempt)`` plus scripted
  overrides so a test can fail a *chosen* chunk;
- :class:`WorkerRecovery` is the policy (fault plan, the existing
  :class:`~repro.resilience.policy.RetryPolicy` for backoff), with
  fault-free defaults the ``REPRO_*`` environment overlays;
- :func:`realign_chunk_recovering` is the recovery itself, one
  synchronous call per chunk on a unit thread: retry under backoff,
  **bisect** a chunk that keeps failing, and finally quarantine a
  single site that still fails to a plain, uninjected run -- so output
  stays byte-identical to a fault-free run no matter what was injected.
  A late chunk needs nothing: the engine's reorder buffer waits for it.

Recovery is observable: ``worker.*`` counters (injections by kind,
errors, retries, bisections, quarantines) and one ``CAT_RECOVERY`` span
per recovery action (:func:`record_recovery_spans`), next to the
``CAT_ENGINE`` chunk timeline. See docs/RESILIENCE.md
("Host data plane fault model").
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.native import env_number
from repro.resilience.faults import keyed_draw
from repro.resilience.policy import RetryPolicy

logger = logging.getLogger(__name__)


class WorkerFaultKind(enum.Enum):
    """Everything the chaos layer can do to a unit's chunk."""

    DELAY = "worker-delay"    # chunk completes, but late
    ERROR = "worker-error"    # chunk raises InjectedWorkerError


class InjectedWorkerError(RuntimeError):
    """The error a chaos-planned ERROR fault raises inside a unit."""


@dataclass(frozen=True)
class WorkerFaultEvent:
    """One injected unit fault: what strikes which dispatch attempt.

    ``magnitude`` carries the sleep of a ``DELAY`` in *seconds*, 0
    otherwise. ``lo`` is the site offset inside the chunk (non-zero
    only for bisected sub-chunks), so a bisected half draws
    independently of its parent chunk.
    """

    kind: WorkerFaultKind
    chunk: int
    attempt: int
    lo: int = 0
    magnitude: float = 0.0


@dataclass(frozen=True)
class ForcedWorkerFault:
    """A scripted fault: strike exactly this dispatch attempt.

    Regression tests use these to place one specific fault -- "fail
    chunk 2 on its first attempt" -- instead of relying on rates to
    produce it.
    """

    chunk: int
    attempt: int
    kind: WorkerFaultKind
    lo: int = 0
    magnitude: float = 0.0


@dataclass(frozen=True)
class WorkerFaultPlan:
    """A seeded, order-independent schedule of unit faults.

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
    ...     ForcedWorkerFault(chunk=2, attempt=0, kind=WorkerFaultKind.ERROR))
    >>> scripted.chunk_outcome(2, 0, 0).kind
    <WorkerFaultKind.ERROR: 'worker-error'>
    >>> scripted.chunk_outcome(2, 0, 1) is None  # the retry succeeds
    True
    """

    seed: int = 0
    delay_rate: float = 0.0
    error_rate: float = 0.0
    delay_range: Tuple[float, float] = (0.005, 0.05)
    forced: Tuple[ForcedWorkerFault, ...] = ()

    def __post_init__(self) -> None:
        for name in ("delay_rate", "error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.worker_fault_rate > 1.0:
            raise ValueError("worker fault rates sum past 1")
        lo, hi = self.delay_range
        if not 0.0 <= lo <= hi:
            raise ValueError("delay range must be non-negative and ordered")

    # -- construction ---------------------------------------------------
    @classmethod
    def none(cls) -> "WorkerFaultPlan":
        """The fault-free plan (every query answers 'no fault')."""
        return cls(seed=0)

    @classmethod
    def chaos(cls, seed: int, rate: float, **overrides) -> "WorkerFaultPlan":
        """Spread one scalar ``rate`` over the two unit faults.

        ``rate`` is the per-attempt probability that a chunk dispatch
        faults, split delay 50% / error 50%.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        return cls(seed=seed, delay_rate=0.5 * rate, error_rate=0.5 * rate,
                   **overrides)

    @classmethod
    def scripted(cls, *faults: ForcedWorkerFault, seed: int = 0,
                 **overrides) -> "WorkerFaultPlan":
        """A plan that strikes exactly the given dispatch attempts."""
        return cls(seed=seed, forced=tuple(faults), **overrides)

    # -- aggregate rates ------------------------------------------------
    @property
    def worker_fault_rate(self) -> float:
        return self.delay_rate + self.error_rate

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
        """Does this chunk dispatch attempt fault, and how?

        One cumulative draw selects between the two kinds so their
        probabilities are exact and mutually exclusive.
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
        if u >= self.worker_fault_rate:
            return None
        kind = (WorkerFaultKind.DELAY if u < self.delay_rate
                else WorkerFaultKind.ERROR)
        return WorkerFaultEvent(
            kind=kind, chunk=chunk, lo=lo, attempt=attempt,
            magnitude=self._magnitude(kind, chunk, lo, attempt, 0.0),
        )

    def _magnitude(self, kind: WorkerFaultKind, chunk: int, lo: int,
                   attempt: int, forced_magnitude: float) -> float:
        if forced_magnitude > 0.0:
            return forced_magnitude
        if kind is WorkerFaultKind.DELAY:
            low, high = self.delay_range
            return low + (high - low) * self.draw("worker-delay", chunk,
                                                  lo, attempt)
        return 0.0


@dataclass(frozen=True)
class WorkerRecovery:
    """Everything host data-plane recovery needs, in one value.

    Every pooled engine run is governed by one of these; the defaults
    are fault-free. ``cycle_seconds`` scales the shared
    :class:`~repro.resilience.policy.RetryPolicy` cycle schedule onto
    the host's wall clock.

    Environment (read by :meth:`from_env`, which the engines call when
    no explicit recovery is given -- this is how CI runs the realign
    suites under injected unit faults); each variable only sets its
    value, none switches anything on:

    - ``REPRO_WORKER_FAULT_RATE``: scalar chaos rate in [0, 1] for
      :meth:`WorkerFaultPlan.chaos`;
    - ``REPRO_CHAOS_SEED``: the plan seed (default 0).
    """

    plan: WorkerFaultPlan = field(default_factory=WorkerFaultPlan.none)
    retry: RetryPolicy = RetryPolicy()
    cycle_seconds: float = 1e-6

    def __post_init__(self) -> None:
        if self.cycle_seconds <= 0.0:
            raise ValueError("cycle_seconds must be positive")

    @classmethod
    def chaos(cls, seed: int, rate: float, **overrides) -> "WorkerRecovery":
        """Default recovery policies over a scalar-rate chaos plan."""
        return cls(plan=WorkerFaultPlan.chaos(seed, rate), **overrides)

    @classmethod
    def from_env(cls, env=None) -> "WorkerRecovery":
        """The defaults, overlaid by whatever the environment sets (a
        malformed value is :func:`~repro.engine.native.env_number`'s
        ``ValueError``)."""
        rate = env_number("REPRO_WORKER_FAULT_RATE", float, 0.0,
                          lambda r: 0.0 <= r <= 1.0, "a number in [0, 1]",
                          env)
        seed = env_number("REPRO_CHAOS_SEED", int, 0, lambda n: True,
                          "an integer", env)
        return cls(plan=WorkerFaultPlan.chaos(seed, rate))


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
    error/bisect/quarantine next to the chunk timeline it disrupted.
    Zero-length events (an instantaneous bisect) still export -- the
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


def realign_chunk_recovering(chunk_id: int, sites: Sequence, config,
                             recovery: WorkerRecovery):
    """Realign one chunk on a unit thread, recovering from its errors.

    Each attempt first injects whatever ``recovery.plan`` holds for
    ``(chunk_id, lo, attempt)``, then calls
    :func:`repro.engine.parallel._realign_chunk`. An attempt that
    raises counts ``worker.errors`` and is retried after the
    :class:`~repro.resilience.policy.RetryPolicy` backoff; a range that
    exhausts ``retry.max_attempts`` is bisected, each half keyed by its
    own ``(chunk_id, lo)`` with a fresh budget; a single site that still
    fails is quarantined -- run once more with no injection, where a
    genuine exception propagates to the caller of ``stream_sites``.

    Returns ``(outcome, counters, events)``: the ``(chunk_id, results,
    start, end, kernel_counters)`` tuple the inline path produces, with
    results in site order however the chunk was recovered, plus this
    chunk's ``worker.*`` recovery counters and :class:`RecoveryEvent` s.
    """
    from repro.engine import parallel

    plan, retry = recovery.plan, recovery.retry
    counters: Dict[str, int] = {}
    events: List[RecoveryEvent] = []

    def count(name: str) -> None:
        counters[name] = counters.get(name, 0) + 1

    def label(lo: int) -> str:
        return f"chunk {chunk_id}" + (f"+{lo}" if lo else "")

    def attempt_range(lo: int, part: List) -> List[Tuple]:
        for attempt in range(retry.max_attempts):
            if attempt:
                count("worker.retries")
                time.sleep(retry.backoff_seconds(
                    attempt - 1, plan, target=chunk_id * 4096 + lo,
                    cycle_seconds=recovery.cycle_seconds,
                ))
            start = time.perf_counter()
            try:
                fault = plan.chunk_outcome(chunk_id, lo, attempt)
                if fault is not None:
                    count(f"worker.injected.{fault.kind.value}")
                    if fault.kind is WorkerFaultKind.ERROR:
                        raise InjectedWorkerError(
                            f"injected error in chunk {chunk_id} (offset "
                            f"{lo}, attempt {attempt})")
                    time.sleep(fault.magnitude)
                return [parallel._realign_chunk(chunk_id, part, config)]
            except Exception as error:  # noqa: BLE001 - recovered below
                count("worker.errors")
                events.append(RecoveryEvent(
                    f"error {label(lo)}", start, time.perf_counter(),
                    chunk=chunk_id, attempt=attempt))
                last_error = error
        now = time.perf_counter()
        if len(part) > 1:
            count("worker.bisects")
            events.append(RecoveryEvent(f"bisect {label(lo)}", now, now,
                                        chunk=chunk_id,
                                        attempt=retry.max_attempts))
            mid = len(part) // 2
            return (attempt_range(lo, part[:mid])
                    + attempt_range(lo + mid, part[mid:]))
        count("worker.quarantined_sites")
        events.append(RecoveryEvent(
            f"quarantine chunk {chunk_id} site {lo}", now, now,
            chunk=chunk_id, attempt=retry.max_attempts))
        logger.warning(
            "site %d of chunk %d quarantined to an uninjected run after "
            "%d attempts (last error: %s)",
            lo, chunk_id, retry.max_attempts, last_error,
        )
        outcome = parallel._realign_chunk(chunk_id, part, config)
        events.append(RecoveryEvent(
            f"inline chunk {chunk_id} site {lo}", now, time.perf_counter(),
            chunk=chunk_id, attempt=retry.max_attempts))
        return [outcome]

    parts = attempt_range(0, list(sites))
    if "worker.errors" not in counters:  # no error, so no bisect either
        return parts[0], counters, events
    merged: Dict[str, int] = {"worker.chunks_recovered": 1}
    for part in parts:
        for name, value in part[4].items():
            merged[name] = merged.get(name, 0) + value
    outcome = (chunk_id, [result for part in parts for result in part[1]],
               min(part[2] for part in parts),
               max(part[3] for part in parts), merged)
    return outcome, counters, events


__all__ = [
    "ForcedWorkerFault",
    "InjectedWorkerError",
    "RecoveryEvent",
    "WorkerFaultEvent",
    "WorkerFaultKind",
    "WorkerFaultPlan",
    "WorkerRecovery",
    "realign_chunk_recovering",
    "record_recovery_spans",
]
