"""Synthetic many-tenant serving load: seeded arrival schedules.

The paper's deployment is a *shared* fleet: many users' cohorts hitting
a pool of F1 instances behind ADAM/Spark. The serving layer
(:mod:`repro.serve`) needs that regime reproduced on a laptop -- many
tenants, overlapping requests, bursts, and (optionally) a spot
-preemption wave knocking out part of the client fleet mid-run -- all
fully deterministic so latency-percentile tests and the serving bench
gate can pin their numbers.

This module owns the *schedule*; what a request contains (which region
job, which SAM lines) is the load generator's business
(:mod:`repro.serve.loadgen`). A schedule is a list of
:class:`ScheduledRequest` -- ``(arrival_s, tenant, job)`` triples --
synthesized per tenant from seeded exponential inter-arrival gaps, then
merged into one global arrival order. Job indices are assigned round
-robin over the job list in construction order, so any schedule with at
least ``num_jobs`` requests covers every job at least once (the load
generator relies on this to reassemble a complete SAM).

The preemption replay (:func:`apply_preemption_replay`) reuses the
fleet machinery from :mod:`repro.perf.fleet` verbatim: tenants are
placed on client instances with :func:`~repro.perf.fleet.plan_fleet`,
:meth:`repro.resilience.faults.FaultPlan.preemption_fraction` decides
which instances die and when, and every request a dead instance had not
yet issued is re-submitted after a restart delay -- the client-side
mirror of the paper's spot-market story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

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
    ``preempt_rate`` is the per-client-instance spot-reclaim
    probability replayed by :func:`apply_preemption_replay`.
    """

    tenants: int = 4
    requests_per_tenant: int = 8
    mean_interarrival_s: float = 0.01
    deadline_s: float = 30.0
    preempt_rate: float = 0.0
    restart_delay_s: float = 0.05
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
        if not 0.0 <= self.preempt_rate <= 1.0:
            raise ValueError(
                f"preempt_rate must be in [0, 1], got {self.preempt_rate}"
            )
        if not 0 <= self.restart_delay_s < math.inf:
            raise ValueError(
                f"restart_delay_s must be a finite number >= 0, "
                f"got {self.restart_delay_s}"
            )
        if self.schedule not in self.SCHEDULES:
            raise ValueError(
                f"schedule must be one of {self.SCHEDULES}, "
                f"got {self.schedule!r}"
            )


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned request: who sends what, when.

    ``retry_of_instance`` is ``-1`` for first-issue requests; replayed
    (post-preemption) re-submissions carry the dead client instance's
    index so reports can attribute the retry wave.
    """

    arrival_s: float
    tenant: str
    job: int
    deadline_s: float
    retry_of_instance: int = -1

    @property
    def is_retry(self) -> bool:
        return self.retry_of_instance >= 0


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


def apply_preemption_replay(
    schedule: List[ScheduledRequest],
    profile: LoadProfile,
    seed: int = 0,
    instances: int = 0,
) -> Tuple[List[ScheduledRequest], int]:
    """Replay a spot-preemption wave over the client fleet.

    Tenants are placed on ``instances`` client instances (default: one
    per two tenants) with the same LPT planner the fleet cost model
    uses, weighting each tenant by its scheduled span. Each instance is
    then reclaimed -- or not -- by
    :meth:`~repro.resilience.faults.FaultPlan.preemption_fraction` at a
    seeded fraction of its span. Requests a reclaimed instance had not
    yet issued are re-submitted ``restart_delay_s`` after the reclaim
    (never earlier than originally planned), tagged with the dead
    instance's index.

    Returns ``(new_schedule, preempted_instances)``. With
    ``profile.preempt_rate == 0`` the schedule is returned unchanged.
    """
    if profile.preempt_rate == 0.0 or not schedule:
        return schedule, 0
    from repro.perf.fleet import FleetJob, plan_fleet
    from repro.resilience.faults import FaultPlan

    if instances <= 0:
        instances = max(1, profile.tenants // 2)
    spans = {}
    for request in schedule:
        spans[request.tenant] = max(
            spans.get(request.tenant, 0.0), request.arrival_s
        )
    plan = plan_fleet(
        [FleetJob(name=tenant, seconds=span or 1e-9)
         for tenant, span in sorted(spans.items())],
        instances,
    )
    tenant_instance = {
        job.name: index
        for index, jobs in plan.assignments.items()
        for job in jobs
    }
    fractions = FaultPlan.chaos(seed, profile.preempt_rate)
    reclaim_at = {}
    for index, jobs in plan.assignments.items():
        if not jobs:
            continue
        fraction = fractions.preemption_fraction(index)
        if fraction is not None:
            span = max(spans[job.name] for job in jobs)
            reclaim_at[index] = fraction * span
    if not reclaim_at:
        return schedule, 0
    replayed: List[ScheduledRequest] = []
    for request in schedule:
        instance = tenant_instance[request.tenant]
        cut = reclaim_at.get(instance)
        if cut is not None and request.arrival_s >= cut:
            replayed.append(replace(
                request,
                arrival_s=max(request.arrival_s,
                              cut + profile.restart_delay_s),
                retry_of_instance=instance,
            ))
        else:
            replayed.append(request)
    replayed.sort(key=lambda r: (r.arrival_s, r.tenant, r.job))
    return replayed, len(reclaim_at)


__all__ = [
    "LoadProfile",
    "ScheduledRequest",
    "TENANT_PREFIX",
    "apply_preemption_replay",
    "synthesize_load_schedule",
]
