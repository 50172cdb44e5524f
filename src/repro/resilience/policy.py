"""Recovery policies: retry/backoff, quarantine, watchdog, and the
top-level config.

The policies are all deterministic. Backoff jitter is drawn from the
:class:`~repro.resilience.faults.FaultPlan`'s keyed generator, so a
chaos run's full recovery schedule -- not just its faults -- replays
exactly from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.resilience.faults import FaultPlan


class ResilienceError(RuntimeError):
    """Raised when recovery is impossible under the configured policy
    (e.g. retries exhausted with the software fallback disabled)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` counts dispatches of one target (first try plus
    retries). Backoff doubles per retry from ``base_backoff_cycles`` up
    to ``max_backoff_cycles``, then +/- ``jitter_fraction`` of itself,
    with the jitter draw keyed by (target, attempt) so two targets
    backing off from the same failure wave do not re-collide on the
    dispatch channel.
    """

    max_attempts: int = 4
    base_backoff_cycles: int = 256
    max_backoff_cycles: int = 16_384
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0 < self.base_backoff_cycles <= self.max_backoff_cycles:
            raise ValueError("backoff bounds must be positive and ordered")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter fraction must be in [0, 1]")

    def backoff_cycles(self, attempt: int, plan: FaultPlan, target: int) -> int:
        """Cycles to wait before dispatch attempt ``attempt + 1``."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        base = min(
            self.base_backoff_cycles * (2 ** attempt),
            self.max_backoff_cycles,
        )
        jitter = plan.draw("backoff", target, attempt)
        scale = 1.0 + self.jitter_fraction * (2.0 * jitter - 1.0)
        return max(1, int(round(base * scale)))


@dataclass(frozen=True)
class QuarantinePolicy:
    """When to pull a misbehaving unit out of the sea.

    A unit is quarantined after ``failure_threshold`` *consecutive*
    failed dispatches (a success resets the count: transient faults are
    forgiven, persistent ones are not). The sea never shrinks below
    ``min_active_units`` healthy units -- past that point the remaining
    units keep serving however flaky they are, and exhausted targets
    drain to the software fallback instead.
    """

    failure_threshold: int = 3
    min_active_units: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        if self.min_active_units < 0:
            raise ValueError("min_active_units must be non-negative")


@dataclass(frozen=True)
class HostWatchdog:
    """The host control loop's per-dispatch watchdog policy.

    The paper's control program "waits for responses" with no bound; a
    hung unit or a dropped MMIO response would stall the whole dispatch
    loop forever. The watchdog arms a deadline when a target is started:
    the host knows each target's expected compute cycles (the cycle
    model it used for planning is deterministic), so the deadline is a
    multiple of that expectation plus fixed slack for MMIO/PCIe jitter.
    On expiry the host treats the dispatch as failed, resets the unit
    (``reset_cycles`` of soft-reset turnaround), and hands the target to
    the retry machinery.
    """

    multiplier: float = 4.0
    slack_cycles: int = 1024
    reset_cycles: int = 64

    def __post_init__(self) -> None:
        if self.multiplier < 1.0:
            raise ValueError("watchdog multiplier must be >= 1")
        if self.slack_cycles < 0 or self.reset_cycles < 0:
            raise ValueError("watchdog cycles must be non-negative")

    def deadline_cycles(self, expected_compute_cycles: int) -> int:
        """Cycles after dispatch at which the watchdog fires."""
        if expected_compute_cycles < 0:
            raise ValueError("expected cycles must be non-negative")
        return int(expected_compute_cycles * self.multiplier) + self.slack_cycles


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the recovery machinery needs, in one switch.

    Attach one of these to :class:`repro.core.system.SystemConfig` to
    run the accelerated system in resilient mode. ``fallback_penalty``
    is the modelled cost ratio of the software realigner to one IR unit
    for the same target (the paper's per-target speedups put software in
    the tens-of-x range against a single data-parallel unit).
    """

    plan: FaultPlan = field(default_factory=FaultPlan.none)
    retry: RetryPolicy = RetryPolicy()
    quarantine: QuarantinePolicy = QuarantinePolicy()
    watchdog: HostWatchdog = HostWatchdog()
    software_fallback: bool = True
    fallback_penalty: float = 48.0

    def __post_init__(self) -> None:
        if self.fallback_penalty < 1.0:
            raise ValueError("fallback penalty must be >= 1")

    @classmethod
    def chaos(cls, seed: int, rate: float) -> "ResilienceConfig":
        """Default policies over a scalar-rate chaos plan."""
        return cls(plan=FaultPlan.chaos(seed, rate))
