"""Serving metrics: latency percentiles and the service snapshot.

Latency is recorded per *request* (enqueue to completion, wall clock)
and summarized as p50/p95/p99 with deterministic linear interpolation
-- the same estimator regardless of platform or numpy version.
Saturation is derived from the service's counters: the fraction of
uptime the admission queue spent at or over its limit, plus the
reject/expire tallies that tell a capacity planner whether the limit or
the deadline is what clipped the load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: The percentiles every latency summary reports, in order.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic linear-interpolation percentile (inclusive ranks).

    Equivalent to ``numpy.percentile(values, q)`` with the default
    ``linear`` interpolation, implemented locally so the serving layer
    never picks up a numpy behaviour change, and so the doctest below
    *is* the definition:

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    >>> percentile([1.0, 2.0, 3.0, 4.0], 75)
    3.25
    >>> percentile([7.0], 95)
    7.0
    """
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    fraction = rank - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * fraction)


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """``{"p50_ms": ..., "p95_ms": ..., "p99_ms": ..., ...}`` or {}."""
    if not seconds:
        return {}
    out = {
        f"p{int(q)}_ms": percentile(seconds, q) * 1e3
        for q in REPORTED_PERCENTILES
    }
    out["mean_ms"] = sum(seconds) / len(seconds) * 1e3
    out["max_ms"] = max(seconds) * 1e3
    out["count"] = float(len(seconds))
    return out


class LatencyRecorder:
    """Accumulates per-request latencies, overall and per tenant."""

    def __init__(self) -> None:
        self._all: List[float] = []
        self._by_tenant: Dict[str, List[float]] = {}

    def record(self, tenant: str, seconds: float) -> None:
        self._all.append(seconds)
        self._by_tenant.setdefault(tenant, []).append(seconds)

    @property
    def count(self) -> int:
        return len(self._all)

    def summary(self) -> Dict[str, float]:
        return latency_summary(self._all)

    def tenant_summaries(self) -> Dict[str, Dict[str, float]]:
        return {
            tenant: latency_summary(values)
            for tenant, values in sorted(self._by_tenant.items())
        }


@dataclass
class ServiceSnapshot:
    """One observation of the request plane, derived from its counters.

    ``saturation`` is ``serve.saturated_us / uptime_us`` -- the
    fraction of the observation window during which the outstanding
    -site count sat at or above the admission limit (i.e. new work was
    being rejected). ``queue_depth`` / ``outstanding_sites``
    are instantaneous; the ``*_peak`` counters carry the run's maxima.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    latency: Dict[str, float] = field(default_factory=dict)
    tenant_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    tenant_sites: Dict[str, int] = field(default_factory=dict)
    queue_depth: int = 0
    outstanding_sites: int = 0
    uptime_s: float = 0.0
    saturation: float = 0.0
    #: Cumulative site-result cache hit rate (0.0 with no cache).
    cache_hit_rate: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "latency": self.latency,
            "tenant_latency": self.tenant_latency,
            "tenant_sites": dict(sorted(self.tenant_sites.items())),
            "queue_depth": self.queue_depth,
            "outstanding_sites": self.outstanding_sites,
            "uptime_s": self.uptime_s,
            "saturation": self.saturation,
            "cache_hit_rate": self.cache_hit_rate,
        }

    def describe(self) -> str:
        """One log-friendly line of the numbers operators watch."""
        latency = self.latency
        lat = (
            f"p50 {latency.get('p50_ms', 0.0):.1f}ms / "
            f"p95 {latency.get('p95_ms', 0.0):.1f}ms / "
            f"p99 {latency.get('p99_ms', 0.0):.1f}ms"
            if latency else "no completed requests"
        )
        extras = ""
        if self.counters.get("cache.hits", 0) or \
                self.counters.get("cache.misses", 0):
            extras += f", cache {self.cache_hit_rate:.1%} hit"
        return (
            f"{self.counters.get('serve.requests_completed', 0)} completed "
            f"({self.counters.get('serve.requests_empty', 0)} without a site, "
            f"{self.counters.get('serve.requests_rejected', 0)} rejected, "
            f"{self.counters.get('serve.requests_expired', 0)} expired), "
            f"{lat}, saturation {self.saturation:.1%}, "
            f"queue {self.queue_depth} req / "
            f"{self.outstanding_sites} sites outstanding" + extras
        )


__all__ = [
    "LatencyRecorder",
    "REPORTED_PERCENTILES",
    "ServiceSnapshot",
    "latency_summary",
    "percentile",
]
