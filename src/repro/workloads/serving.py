"""Synthetic many-tenant serving load: seeded arrival schedules.

The paper's deployment is a *shared* fleet: many users' cohorts hitting
a pool of F1 instances behind ADAM/Spark. The serving layer
(:mod:`repro.serve`) needs that regime reproduced on a laptop -- many
tenants, overlapping requests and bursts -- all fully deterministic so
latency-percentile tests and the serving bench gate can pin their
numbers.

This module owns the *schedule*; what a request contains (which region
job, which SAM lines) is the load generator's business
(:mod:`repro.serve.loadgen`). A schedule is a list of
:class:`ScheduledRequest` -- ``(arrival_s, tenant, job)`` triples --
synthesized per tenant from seeded exponential inter-arrival gaps, then
merged into one global arrival order. Job indices are assigned round
-robin over the job list in construction order, so any schedule with at
least ``num_jobs`` requests covers every job at least once (the load
generator relies on this to reassemble a complete SAM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

#: Tenant names are synthesized as ``tenant{i}``; kept stable so seeded
#: schedules, per-tenant fairness counters, and goldens agree on names.
TENANT_PREFIX = "tenant"


@dataclass(frozen=True)
class LoadProfile:
    """Shape of a synthetic serving load.

    ``mean_interarrival_s`` is each tenant's mean gap between request
    *issues* (exponential, seeded); tenants are independent, so the
    aggregate offered rate is ``tenants / mean_interarrival_s``.
    """

    tenants: int = 4
    requests_per_tenant: int = 8
    mean_interarrival_s: float = 0.01
    deadline_s: float = 30.0
    schedule: str = "uniform"

    #: Valid ``schedule`` values: ``uniform`` assigns jobs round-robin
    #: (every request distinct until the job list wraps);
    #: ``duplicate_heavy`` is the multi-tenant cohort regime -- most
    #: requests re-submit a small hot set of overlapping cohort
    #: regions, the traffic shape the content-addressed site cache is
    #: built for.
    SCHEDULES = ("uniform", "duplicate_heavy")

    #: duplicate_heavy: probability a request draws from the hot set.
    HOT_FRACTION = 0.85

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.requests_per_tenant < 1:
            raise ValueError("requests_per_tenant must be >= 1")
        # Chained comparisons, so NaN fails them too.
        for name in ("mean_interarrival_s", "deadline_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be a finite number > 0, got {value}"
                )
        if self.schedule not in self.SCHEDULES:
            raise ValueError(
                f"schedule must be one of {self.SCHEDULES}, "
                f"got {self.schedule!r}"
            )


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned request: who sends what, when."""

    arrival_s: float
    tenant: str
    job: int
    deadline_s: float


def synthesize_load_schedule(
    profile: LoadProfile, num_jobs: int, seed: int = 0
) -> List[ScheduledRequest]:
    """Build the deterministic arrival schedule for one load run.

    Per tenant ``t``, arrival times are the running sum of
    ``Exponential(mean_interarrival_s)`` gaps drawn from
    ``default_rng((seed, t))`` -- independent streams, so adding a
    tenant never perturbs another tenant's arrivals. Requests are
    assigned job indices round-robin in tenant-major construction
    order, then the merged list is sorted by ``(arrival, tenant, job)``
    for a total, reproducible order.

    With ``profile.schedule == "duplicate_heavy"``, each request
    instead re-submits a job from a small shared *hot set* (the first
    ``max(1, num_jobs // 8)`` jobs) with probability
    :data:`LoadProfile.HOT_FRACTION`, falling back to round-robin
    otherwise -- seeded from the same per-tenant streams, so the
    duplicate pattern is as reproducible as the arrivals. This is the
    cohort-re-analysis regime: many tenants querying overlapping
    regions, which the content-addressed site cache short-circuits
    (the loadgen's final sweep pass still covers every job, so the
    reassembled SAM stays complete).

    >>> profile = LoadProfile(tenants=2, requests_per_tenant=2,
    ...                       mean_interarrival_s=0.01)
    >>> schedule = synthesize_load_schedule(profile, num_jobs=3, seed=7)
    >>> len(schedule), sorted({r.tenant for r in schedule})
    (4, ['tenant0', 'tenant1'])
    >>> schedule == synthesize_load_schedule(profile, num_jobs=3, seed=7)
    True
    >>> heavy = LoadProfile(tenants=2, requests_per_tenant=8,
    ...                     schedule="duplicate_heavy")
    >>> hot = synthesize_load_schedule(heavy, num_jobs=16, seed=7)
    >>> sum(1 for r in hot if r.job < 2) > len(hot) // 2
    True
    """
    if num_jobs < 1:
        raise ValueError(f"num_jobs must be >= 1, got {num_jobs}")
    hot_jobs = max(1, num_jobs // 8)
    requests: List[ScheduledRequest] = []
    counter = 0
    for tenant_index in range(profile.tenants):
        rng = np.random.default_rng((seed, tenant_index))
        gaps = rng.exponential(profile.mean_interarrival_s,
                               size=profile.requests_per_tenant)
        arrival = 0.0
        for gap in gaps:
            arrival += float(gap)
            job = counter % num_jobs
            if profile.schedule == "duplicate_heavy" \
                    and rng.random() < profile.HOT_FRACTION:
                job = int(rng.integers(0, hot_jobs))
            requests.append(ScheduledRequest(
                arrival_s=arrival,
                tenant=f"{TENANT_PREFIX}{tenant_index}",
                job=job,
                deadline_s=profile.deadline_s,
            ))
            counter += 1
    return sorted(requests, key=lambda r: (r.arrival_s, r.tenant, r.job))


__all__ = [
    "LoadProfile",
    "ScheduledRequest",
    "TENANT_PREFIX",
    "synthesize_load_schedule",
]
