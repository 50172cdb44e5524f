"""Per-unit health tracking and fault-event counters.

These are the observability records threaded into
:class:`repro.core.system.SystemRunResult`: what was injected, what the
watchdog caught, which units degraded, and where every target finally
completed (hardware or software fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.resilience.faults import FaultEvent, FaultKind


@dataclass
class UnitHealth:
    """One IR unit's service record across a run."""

    unit: int
    attempts: int = 0
    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False
    busy_cycles: int = 0

    def record_success(self, busy_cycles: int) -> None:
        self.attempts += 1
        self.successes += 1
        self.consecutive_failures = 0
        self.busy_cycles += busy_cycles

    def record_failure(self, busy_cycles: int) -> None:
        self.attempts += 1
        self.failures += 1
        self.consecutive_failures += 1
        self.busy_cycles += busy_cycles


@dataclass
class FaultCounters:
    """Every fault injected and every recovery action taken."""

    injected: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    watchdog_expirations: int = 0
    fallbacks: int = 0
    quarantined_units: int = 0

    def record(self, event: FaultEvent) -> None:
        key = event.kind.value
        self.injected[key] = self.injected.get(key, 0) + 1

    def count(self, kind: FaultKind) -> int:
        return self.injected.get(kind.value, 0)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


@dataclass
class ResilienceStats:
    """A run's fault-tolerance outcome, as reported by the system.

    ``completions`` maps each scheduled position (dispatch order, so
    replicated rounds of the same site are distinct) to ``"hw"`` or
    ``"sw"``.
    """

    counters: FaultCounters
    unit_health: List[UnitHealth]
    completions: Dict[int, str]
    quarantined: List[int]
    hardware_makespan_cycles: int = 0
    fallback_cycles: int = 0

    @property
    def active_units(self) -> int:
        """Units still in service at the end of the run (N - k)."""
        return sum(1 for h in self.unit_health if not h.quarantined)

    @property
    def software_completions(self) -> int:
        return sum(1 for mode in self.completions.values() if mode == "sw")

    @property
    def fallback_fraction(self) -> float:
        if not self.completions:
            return 0.0
        return self.software_completions / len(self.completions)

    def describe(self) -> str:
        injected = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.counters.injected.items())
        ) or "none"
        return (
            f"faults injected: {injected}; "
            f"retries {self.counters.retries}, "
            f"watchdog expirations {self.counters.watchdog_expirations}, "
            f"quarantined {self.counters.quarantined_units}, "
            f"software fallbacks {self.counters.fallbacks} "
            f"({self.fallback_fraction:.1%} of targets); "
            f"{self.active_units}/{len(self.unit_health)} units in service"
        )
