"""Fleet planning: "a sea of IR accelerators" across many F1 instances.

The paper's deployment story is cloud elasticity: an AFI (Amazon FPGA
Image) is "ready to be loaded and used anywhere in the world where users
have access to an AWS EC2 F1 instance". This module plans whole-genome
(or multi-genome) INDEL realignment across a fleet: per-chromosome jobs
are placed on instances with the longest-processing-time heuristic, and
the resulting makespan / dollar figures quantify the scale-out the paper
alludes to (instance-hours are constant, wall-clock divides by the
fleet).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.perf.instances import EC2Instance, F1_2XLARGE


@dataclass(frozen=True)
class FleetJob:
    """One schedulable unit of work (e.g. one chromosome of one genome)."""

    name: str
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("job duration must be non-negative")


@dataclass
class FleetPlan:
    """Placement of jobs onto a fleet of identical instances."""

    instance: EC2Instance
    num_instances: int
    assignments: Dict[int, List[FleetJob]] = field(default_factory=dict)

    @property
    def makespan_seconds(self) -> float:
        if not self.assignments:
            return 0.0
        return max(
            sum(job.seconds for job in jobs)
            for jobs in self.assignments.values()
        )

    @property
    def cost_dollars(self) -> float:
        """Billed per-instance for its busy time (per-second billing)."""
        return sum(
            self.instance.cost(sum(job.seconds for job in jobs))
            for jobs in self.assignments.values()
        )

    @property
    def utilization(self) -> float:
        span = self.makespan_seconds
        if span == 0:
            return 0.0
        # The mean of per-instance shares, each <= 1 in floating point:
        # total work / (instances x span) can round to just above 1.
        return sum(
            sum(job.seconds for job in jobs) / span
            for jobs in self.assignments.values()
        ) / self.num_instances


def plan_fleet(
    jobs: Sequence[FleetJob],
    num_instances: int,
    instance: EC2Instance = F1_2XLARGE,
) -> FleetPlan:
    """Place jobs on ``num_instances`` instances, longest-first.

    LPT keeps the makespan within 4/3 of optimal, which is more than
    enough fidelity for a cost/wall-clock planner.
    """
    if num_instances <= 0:
        raise ValueError("fleet needs at least one instance")
    plan = FleetPlan(instance=instance, num_instances=num_instances,
                     assignments={i: [] for i in range(num_instances)})
    heap: List[Tuple[float, int]] = [(0.0, i) for i in range(num_instances)]
    heapq.heapify(heap)
    for job in sorted(jobs, key=lambda j: (-j.seconds, j.name)):
        load, index = heapq.heappop(heap)
        plan.assignments[index].append(job)
        heapq.heappush(heap, (load + job.seconds, index))
    return plan


def record_fleet_spans(telemetry, plan: FleetPlan) -> None:
    """Record a fleet plan as a span timeline (one track per instance).

    Jobs run back-to-back in assignment (LPT) order, so each instance's
    track tiles from zero to its busy time. Fleet timelines tick in
    *seconds* (``ticks_per_second=1``), unlike the cycle-model traces.
    """
    from repro.telemetry.spans import CAT_FLEET

    if telemetry.ticks_per_second is None:
        telemetry.ticks_per_second = 1.0
    for index, jobs in sorted(plan.assignments.items()):
        track = f"instance {index}"
        clock = 0.0
        for job in jobs:
            telemetry.span(job.name, track, clock, clock + job.seconds,
                           CAT_FLEET)
            clock += job.seconds
    telemetry.count("fleet.instances", plan.num_instances)
    telemetry.count("fleet.jobs",
                    sum(len(jobs) for jobs in plan.assignments.values()))


def record_engine_shards(telemetry, shards, origin: float,
                         workers: int) -> None:
    """Record an engine run as a span timeline (one track per chunk).

    The host-side analogue of :func:`record_fleet_spans`: each chunk of
    an engine run becomes one ``CAT_ENGINE`` span ``"shard N (S
    sites)"`` on the track ``"engine shard N"``, offset from ``origin``
    (the run's start on the same ``perf_counter`` clock), so a Chrome
    trace shows chunks overlapping across workers -- and, under the
    engine's bounded window, starting later than ``queue_depth x
    workers`` would allow (the visual signature of backpressure).
    Engine timelines tick in *seconds*, like fleet timelines.
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


def diagnostic_turnaround(
    chromosome_seconds: Dict[str, float],
    num_instances: int,
    instance: EC2Instance = F1_2XLARGE,
) -> FleetPlan:
    """Plan one patient's genome across a fleet.

    The paper's clinical framing: "a patient presenting in acute blast
    crisis can die within days, so a few hours difference in obtaining
    the genomic analysis results can affect the timely treatment".
    """
    jobs = [FleetJob(name=f"chr{name}", seconds=seconds)
            for name, seconds in chromosome_seconds.items()]
    return plan_fleet(jobs, num_instances, instance)
