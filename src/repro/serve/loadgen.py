"""The serving load generator: many tenants against a live server.

``run_loadgen`` drives a seeded many-tenant schedule
(:mod:`repro.workloads.serving`) against a running ``repro serve``:
the input SAM lines are partitioned into independent region jobs
(:func:`repro.serve.jobs.partition_jobs`, on the reads parsed from
them), each job sends its own lines, each tenant gets its own
connection, requests fire at their scheduled arrivals (scalable with
``time_scale``), and client-observed latencies are collected into a
:class:`LoadReport` alongside the server's own snapshot. Because job
indices are assigned round-robin over the job list, every job is
requested at least once whenever the schedule has >= num_jobs
requests; any job that still lacks a successful response after the
scheduled wave (rejected under backpressure, expired) is re-submitted
in a final sweep, so the reassembled lines are always complete -- and
byte-identical to ``repro realign``'s on the same input, which
``--compare``/``--selftest`` and CI's serve smoke step assert.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.client import ServiceClient
from repro.serve.jobs import partition_jobs
from repro.serve.metrics import LatencyRecorder
from repro.serve.request import (
    DeadlineExceeded,
    ServeError,
    ServiceSaturated,
)
from repro.workloads.serving import (
    LoadProfile,
    ScheduledRequest,
    synthesize_load_schedule,
)


@dataclass
class LoadReport:
    """What one load run did: request outcomes, latency, server view."""

    requests: int = 0
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    failed: int = 0
    sweep_requests: int = 0
    jobs: int = 0
    tenants: int = 0
    wall_s: float = 0.0
    latency: Dict[str, float] = field(default_factory=dict)
    tenant_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    server: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "failed": self.failed,
            "sweep_requests": self.sweep_requests,
            "jobs": self.jobs,
            "tenants": self.tenants,
            "wall_s": self.wall_s,
            "latency": self.latency,
            "tenant_latency": self.tenant_latency,
            "server": self.server,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def summary(self) -> str:
        """One line: request outcomes, then client-observed latency.

        >>> report = LoadReport(requests=3, completed=2, rejected=1,
        ...                     jobs=2, tenants=1, latency={
        ...                         "p50_ms": 4.0, "p95_ms": 9.5,
        ...                         "p99_ms": 9.9})
        >>> print(report.summary())  # doctest: +NORMALIZE_WHITESPACE
        loadgen: 3 requests from 1 tenant(s) over 2 job(s): 2 ok,
        1 rejected, 0 expired, 0 failed (0 swept); p50 4.0ms /
        p95 9.5ms / p99 9.9ms
        """
        latency = self.latency
        lat = (
            f"p50 {latency.get('p50_ms', 0.0):.1f}ms / "
            f"p95 {latency.get('p95_ms', 0.0):.1f}ms / "
            f"p99 {latency.get('p99_ms', 0.0):.1f}ms"
            if latency else "no completed requests"
        )
        return (
            f"loadgen: {self.requests} requests from {self.tenants} "
            f"tenant(s) over {self.jobs} job(s): {self.completed} ok, "
            f"{self.rejected} rejected, {self.expired} expired, "
            f"{self.failed} failed ({self.sweep_requests} swept); {lat}"
        )


async def run_loadgen(
    host: str,
    port: int,
    lines: Sequence[str],
    reads: Sequence,
    reference=None,
    profile: Optional[LoadProfile] = None,
    seed: int = 0,
    time_scale: float = 1.0,
) -> Tuple[List[str], LoadReport]:
    """Drive a scheduled load; returns (realigned lines, report).

    ``lines`` are SAM alignment lines and ``reads[i]`` is parsed from
    ``lines[i]``: the reads cut the region jobs, the lines are what a
    job sends. ``time_scale`` multiplies scheduled arrival gaps:
    ``0.0`` fires the whole schedule at once (max coalescing pressure),
    ``1.0`` replays it in real time. The returned lines are the input's
    with the moved reads patched, complete and in input order
    regardless of per-request rejections -- see the sweep pass.
    """
    if profile is None:
        profile = LoadProfile()
    if time_scale < 0:
        raise ValueError(f"time_scale must be >= 0, got {time_scale}")
    jobs = partition_jobs(reads, reference)
    schedule = synthesize_load_schedule(profile, len(jobs), seed)

    report = LoadReport(jobs=len(jobs), tenants=profile.tenants)
    job_lines: Dict[int, List[str]] = {}
    recorder = LatencyRecorder()
    clients: Dict[str, ServiceClient] = {}
    loop = asyncio.get_running_loop()
    try:
        for tenant in sorted({r.tenant for r in schedule}):
            clients[tenant] = await ServiceClient.open(host, port)
        started = loop.time()

        async def issue(request: ScheduledRequest) -> str:
            delay = request.arrival_s * time_scale - (loop.time() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            job = jobs[request.job]
            sent = loop.time()
            try:
                result = await clients[request.tenant].realign(
                    [lines[i] for i in job.indices],
                    tenant=request.tenant,
                    deadline_s=request.deadline_s,
                )
            except ServiceSaturated:
                return "rejected"
            except DeadlineExceeded:
                return "expired"
            except (ServeError, ConnectionError, OSError):
                return "failed"
            recorder.record(request.tenant, loop.time() - sent)
            job_lines.setdefault(request.job, result.sam)
            return "completed"

        outcomes = await asyncio.gather(*(issue(r) for r in schedule))
        report.requests = len(schedule)
        for outcome in outcomes:
            setattr(report, outcome, getattr(report, outcome) + 1)

        # Sweep: guarantee every job completed at least once so the
        # reassembled SAM is whole even under heavy rejection.
        sweeper = next(iter(clients.values()))
        for job in jobs:
            if job.job_id in job_lines:
                continue
            result = await sweeper.realign(
                [lines[i] for i in job.indices],
                tenant="sweep",
            )
            job_lines[job.job_id] = result.sam
            report.sweep_requests += 1
        report.server = await sweeper.stats()
    finally:
        for client in clients.values():
            await client.close()

    report.wall_s = loop.time() - started
    report.latency = recorder.summary()
    report.tenant_latency = recorder.tenant_summaries()
    # A job's result holds exactly the lines it sent (patched), so the
    # input order is restored by index.
    updated = list(lines)
    for job in jobs:
        for index, line in zip(job.indices, job_lines[job.job_id]):
            updated[index] = line
    return updated, report


__all__ = ["LoadReport", "run_loadgen"]
