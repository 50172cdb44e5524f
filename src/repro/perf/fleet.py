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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    def total_work_seconds(self) -> float:
        return sum(
            job.seconds for jobs in self.assignments.values() for job in jobs
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
        return self.total_work_seconds / (self.num_instances * span)


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


def fleet_size_for_deadline(
    jobs: Sequence[FleetJob],
    deadline_seconds: float,
    instance: EC2Instance = F1_2XLARGE,
    max_instances: int = 4096,
) -> Optional[FleetPlan]:
    """Smallest fleet whose LPT makespan meets the deadline.

    Returns ``None`` when even ``max_instances`` cannot meet it (a job
    longer than the deadline cannot be split: targets within a job
    could, but the planner works at job granularity).
    """
    if deadline_seconds <= 0:
        raise ValueError("deadline must be positive")
    longest = max((job.seconds for job in jobs), default=0.0)
    if longest > deadline_seconds:
        return None
    total = sum(job.seconds for job in jobs)
    # Lower bound on the fleet; then grow until LPT fits.
    size = max(1, int(total // deadline_seconds))
    while size <= max_instances:
        plan = plan_fleet(jobs, size, instance)
        if plan.makespan_seconds <= deadline_seconds:
            return plan
        size += 1
    return None


def record_fleet_spans(telemetry, plan: FleetPlan,
                       preempted: Optional["PreemptedFleetResult"] = None,
                       ) -> None:
    """Record a fleet plan as a span timeline (one track per instance).

    Jobs run back-to-back in assignment (LPT) order, so each instance's
    track tiles from zero to its busy time; passing the matching
    ``preempted`` replay additionally marks each reclamation with an
    instant event at its cut point. Fleet timelines tick in *seconds*
    (``ticks_per_second=1``), unlike the cycle-model traces.
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
    if preempted is not None:
        for event in preempted.events:
            telemetry.instant("spot reclaimed",
                              f"instance {event.instance}",
                              event.at_seconds, "preemption")
        telemetry.count("fleet.preemptions", len(preempted.events))
        telemetry.count("fleet.jobs_rescheduled",
                        len(preempted.rescheduled))


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


@dataclass(frozen=True)
class PreemptionEvent:
    """One spot reclamation: instance ``instance`` dies at ``at_seconds``."""

    instance: int
    at_seconds: float


@dataclass
class PreemptedFleetResult:
    """A fleet plan after a wave of spot preemptions.

    Single-shock model: each instance is reclaimed at most once, at a
    fraction of its planned busy time; jobs it had already finished
    survive, everything else (including the in-flight job, which has no
    checkpoint) restarts on the least-loaded surviving instance with a
    fixed re-provisioning overhead. If the whole fleet is reclaimed, one
    on-demand replacement instance drains the remaining jobs serially.
    """

    original: FleetPlan
    events: List[PreemptionEvent] = field(default_factory=list)
    rescheduled: List[FleetJob] = field(default_factory=list)
    final_loads: Dict[int, float] = field(default_factory=dict)
    makespan_seconds: float = 0.0
    lost_work_seconds: float = 0.0
    restart_overhead_seconds: float = 0.0

    @property
    def cost_dollars(self) -> float:
        """Each instance bills for the time it actually ran."""
        return sum(
            self.original.instance.cost(load)
            for load in self.final_loads.values()
        )

    @property
    def makespan_inflation(self) -> float:
        base = self.original.makespan_seconds
        if base == 0:
            return 1.0
        return self.makespan_seconds / base


def simulate_preemptions(
    plan: FleetPlan,
    preempt_fraction: Callable[[int], Optional[float]],
    restart_overhead_s: float = 90.0,
) -> PreemptedFleetResult:
    """Replay ``plan`` under spot reclamations and re-place lost work.

    ``preempt_fraction(i)`` returns the fraction of instance ``i``'s
    busy time at which AWS reclaims it, or ``None`` if it survives --
    :meth:`repro.resilience.faults.FaultPlan.preemption_fraction` plugs
    in directly, making fleet chaos reproducible from the same seed as
    accelerator chaos.
    """
    if restart_overhead_s < 0:
        raise ValueError("restart overhead must be non-negative")
    result = PreemptedFleetResult(original=plan)
    survivors: Dict[int, float] = {}
    orphans: List[FleetJob] = []
    for index, jobs in sorted(plan.assignments.items()):
        busy = sum(job.seconds for job in jobs)
        fraction = preempt_fraction(index)
        if fraction is None:
            survivors[index] = busy
            continue
        if not 0.0 < fraction < 1.0:
            raise ValueError("preemption fraction must be in (0, 1)")
        cut = fraction * busy
        result.events.append(PreemptionEvent(index, cut))
        elapsed = 0.0
        for job in jobs:  # jobs ran in assignment (LPT) order
            if elapsed + job.seconds <= cut:
                elapsed += job.seconds  # finished before the reclaim
            else:
                orphans.append(job)
        result.lost_work_seconds += max(cut - elapsed, 0.0)
        result.final_loads[index] = cut  # spot bills to the reclaim
    if orphans and not survivors:
        # The whole fleet died: one on-demand replacement drains it.
        replacement = max(plan.assignments, default=-1) + 1
        survivors[replacement] = 0.0
    heap: List[Tuple[float, int]] = [
        (load, index) for index, load in survivors.items()
    ]
    heapq.heapify(heap)
    for job in sorted(orphans, key=lambda j: (-j.seconds, j.name)):
        load, index = heapq.heappop(heap)
        result.rescheduled.append(job)
        result.restart_overhead_seconds += restart_overhead_s
        heapq.heappush(heap, (load + restart_overhead_s + job.seconds, index))
    for load, index in heap:
        result.final_loads[index] = load
    result.makespan_seconds = max(result.final_loads.values(), default=0.0)
    return result


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
