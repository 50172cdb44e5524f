"""The fault taxonomy and the deterministic fault injector.

Every fault the chaos layer can inject is one of :class:`FaultKind`;
where and when they strike is decided by a :class:`FaultPlan`. The plan
is *seeded and order-independent*: each decision is drawn from a
generator keyed by ``(seed, domain, identifiers)``, so the same plan
gives the same answer no matter how many times -- or in what order --
the recovery machinery asks. That property is what makes chaos runs
reproducible from a single ``--chaos-seed`` and lets property tests
replay a fault schedule exactly.

Fault sites (see ``docs/RESILIENCE.md`` for the full taxonomy):

- **unit faults** strike one dispatch attempt of one target on one IR
  unit: the unit hangs (never responds), runs slow (clock throttling /
  fabric congestion), its RoCC completion response is dropped on the
  AXILite path, or the response arrives corrupted (caught by the CRC of
  :func:`repro.hw.axi.check_response`);
- **DMA faults** strike one transfer attempt on the PCIe channel: the
  EDMA driver reports an error mid-stream, or the transfer times out
  (:meth:`repro.hw.memory.PcieDmaModel.faulted_transfer_seconds`);
- **preemption** strikes a whole fleet instance: AWS reclaims the spot
  capacity a fraction of the way through its work
  (:func:`repro.perf.fleet.simulate_preemptions`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


class FaultKind(enum.Enum):
    """Everything the chaos layer can break."""

    UNIT_HANG = "unit-hang"
    UNIT_SLOWDOWN = "unit-slowdown"
    RESPONSE_DROP = "response-drop"
    RESPONSE_CORRUPT = "response-corrupt"
    DMA_ERROR = "dma-error"
    DMA_TIMEOUT = "dma-timeout"
    PREEMPTION = "preemption"


#: The unit-attempt kinds, in cumulative-draw order.
UNIT_FAULT_KINDS = (
    FaultKind.UNIT_HANG,
    FaultKind.UNIT_SLOWDOWN,
    FaultKind.RESPONSE_DROP,
    FaultKind.RESPONSE_CORRUPT,
)

#: The DMA-attempt kinds, in cumulative-draw order.
DMA_FAULT_KINDS = (FaultKind.DMA_ERROR, FaultKind.DMA_TIMEOUT)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what struck which attempt of which target.

    ``magnitude`` carries the kind-specific parameter: the slowdown
    factor for ``UNIT_SLOWDOWN``, the work fraction at which the
    instance dies for ``PREEMPTION``, and 0 otherwise.
    """

    kind: FaultKind
    target: int
    attempt: int
    unit: int = -1
    magnitude: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, order-independent schedule of injected faults.

    Rates are per-attempt probabilities; the four unit-fault rates must
    sum to at most 1, as must the two DMA rates. ``FaultPlan.none()``
    is the fault-free plan; ``FaultPlan.chaos(seed, rate)`` spreads a
    single scalar fault rate over the taxonomy with fixed weights.
    """

    seed: int = 0
    unit_hang_rate: float = 0.0
    unit_slowdown_rate: float = 0.0
    response_drop_rate: float = 0.0
    response_corrupt_rate: float = 0.0
    dma_error_rate: float = 0.0
    dma_timeout_rate: float = 0.0
    preemption_rate: float = 0.0
    slowdown_range: Tuple[float, float] = (2.0, 8.0)

    def __post_init__(self) -> None:
        for name in (
            "unit_hang_rate", "unit_slowdown_rate", "response_drop_rate",
            "response_corrupt_rate", "dma_error_rate", "dma_timeout_rate",
            "preemption_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.unit_fault_rate > 1.0:
            raise ValueError("unit fault rates sum past 1")
        if self.dma_fault_rate > 1.0:
            raise ValueError("DMA fault rates sum past 1")
        lo, hi = self.slowdown_range
        if not 1.0 <= lo <= hi:
            raise ValueError("slowdown factors must be >= 1 and ordered")

    # -- construction ---------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The fault-free plan (every query answers 'no fault')."""
        return cls(seed=0)

    @classmethod
    def chaos(cls, seed: int, rate: float) -> "FaultPlan":
        """Spread one scalar ``rate`` over the taxonomy.

        ``rate`` is the per-attempt probability that a hardware dispatch
        faults (split hang 20% / slowdown 30% / drop 25% / corrupt 25%);
        DMA attempts fault at ``rate / 5`` (errors 4:1 over timeouts)
        and fleet instances are preempted with probability ``rate``.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        return cls(
            seed=seed,
            unit_hang_rate=0.20 * rate,
            unit_slowdown_rate=0.30 * rate,
            response_drop_rate=0.25 * rate,
            response_corrupt_rate=0.25 * rate,
            dma_error_rate=0.16 * rate,
            dma_timeout_rate=0.04 * rate,
            preemption_rate=rate,
        )

    # -- aggregate rates ------------------------------------------------
    @property
    def unit_fault_rate(self) -> float:
        return (
            self.unit_hang_rate + self.unit_slowdown_rate
            + self.response_drop_rate + self.response_corrupt_rate
        )

    @property
    def dma_fault_rate(self) -> float:
        return self.dma_error_rate + self.dma_timeout_rate

    @property
    def is_fault_free(self) -> bool:
        return (
            self.unit_fault_rate == 0.0
            and self.dma_fault_rate == 0.0
            and self.preemption_rate == 0.0
        )

    # -- deterministic draws --------------------------------------------
    def draw(self, domain: str, *key: int) -> float:
        """One uniform [0, 1) draw keyed by ``(seed, domain, *key)``.

        Identical keys give identical draws in any query order; distinct
        domains decorrelate draws that share numeric identifiers.
        """
        digest = sum(ord(c) * 131 ** i for i, c in enumerate(domain))
        words = ((self.seed, digest % (2**31))
                 + tuple(int(k) % (2**31) for k in key))
        return float(np.random.default_rng(words).random())

    def attempt_outcome(
        self, unit: int, target: int, attempt: int
    ) -> Optional[FaultEvent]:
        """Does this dispatch attempt fault, and how?

        One cumulative draw selects among the four unit-fault kinds so
        their probabilities are exact and mutually exclusive.
        """
        if self.unit_fault_rate == 0.0:
            return None
        u = self.draw("unit", unit, target, attempt)
        edge = 0.0
        for kind, rate in zip(
            UNIT_FAULT_KINDS,
            (self.unit_hang_rate, self.unit_slowdown_rate,
             self.response_drop_rate, self.response_corrupt_rate),
        ):
            edge += rate
            if u < edge:
                magnitude = 0.0
                if kind is FaultKind.UNIT_SLOWDOWN:
                    lo, hi = self.slowdown_range
                    magnitude = lo + (hi - lo) * self.draw(
                        "slowdown", unit, target, attempt
                    )
                return FaultEvent(
                    kind=kind, target=target, attempt=attempt,
                    unit=unit, magnitude=magnitude,
                )
        return None

    def dma_outcome(self, target: int, attempt: int) -> Optional[FaultEvent]:
        """Does this target's transfer attempt fault on the PCIe channel?"""
        if self.dma_fault_rate == 0.0:
            return None
        u = self.draw("dma", target, attempt)
        edge = 0.0
        for kind, rate in zip(
            DMA_FAULT_KINDS, (self.dma_error_rate, self.dma_timeout_rate)
        ):
            edge += rate
            if u < edge:
                return FaultEvent(kind=kind, target=target, attempt=attempt)
        return None

    def preemption_fraction(self, instance: int) -> Optional[float]:
        """Is fleet instance ``instance`` preempted; if so, when?

        Returns the fraction of the instance's busy time at which AWS
        reclaims it (uniform over (0, 1)), or ``None`` if it survives.
        """
        if self.preemption_rate == 0.0:
            return None
        if self.draw("preempt", instance) >= self.preemption_rate:
            return None
        # Strictly interior: a preemption at exactly 0 or 1 degenerates
        # to "never started" / "already finished".
        return 0.01 + 0.98 * self.draw("preempt-at", instance)
