"""Request-plane vocabulary: configuration, job records, and errors.

The service works at *site* granularity -- the same unit the engines
batch and the accelerator dispatches -- so one network-level realign
request (a region's worth of reads) becomes one :class:`SiteJob`
carrying the region's built sites. Admission control counts sites, not
requests, because sites are what occupy the engine's bounded window: a
tenant submitting one 400-site request exerts the same pressure as 400
one-site requests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

#: Tenant used when a request does not name one.
DEFAULT_TENANT = "anonymous"

#: Admission policies: reject over-limit submissions immediately, or
#: park them (still counting their deadline) until the queue drains.
ADMISSION_POLICIES = ("reject", "queue")


class ServeError(RuntimeError):
    """Base class for request-plane failures."""


class ServiceSaturated(ServeError):
    """Admission control refused a submission: the queue is full.

    Carries enough context for a client to implement informed backoff.
    """

    def __init__(self, requested: int = 0, outstanding: int = 0,
                 limit: int = 0, tenant: str = DEFAULT_TENANT,
                 message: Optional[str] = None):
        # ``message`` lets the wire client re-raise a server-side
        # rejection verbatim (the counts are in the text but not
        # machine-recoverable from it).
        super().__init__(
            message if message is not None else
            f"service saturated: {requested} sites requested with "
            f"{outstanding}/{limit} outstanding (tenant {tenant})"
        )
        self.requested = requested
        self.outstanding = outstanding
        self.limit = limit
        self.tenant = tenant


class DeadlineExceeded(ServeError):
    """The request's deadline passed before its sites were realigned."""


class ServiceClosed(ServeError):
    """Submission arrived after shutdown began."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the asyncio request plane.

    - ``max_queue_sites`` bounds *outstanding* sites -- accepted but not
      yet completed -- the service-level analogue of the streaming
      engine's ``queue_depth x workers`` in-flight window. Submissions
      that would exceed it are rejected (``admission="reject"``) or
      parked until room frees (``admission="queue"``); parked requests
      still expire at their deadline.
    - ``max_tenant_sites`` optionally caps one tenant's outstanding
      sites (fairness: a single tenant cannot occupy the whole queue).
      ``None`` disables the per-tenant cap.
    - ``coalesce_sites`` / ``coalesce_wait_ms``: the batcher dispatches
      an engine call once it has gathered this many sites, or when the
      oldest gathered request has lingered this long -- the same
      request-coalescing trick ``SystemConfig.dispatch_batch`` plays
      for the accelerator's transfer channel.
    - ``default_deadline_s`` applies to requests that do not carry one.
    - ``drain_timeout_s`` bounds graceful shutdown: jobs still queued
      when it expires fail with :class:`ServiceClosed`.

    >>> ServiceConfig(max_queue_sites=0)
    Traceback (most recent call last):
        ...
    ValueError: max_queue_sites must be >= 1, got 0
    >>> ServiceConfig(admission="drop")
    Traceback (most recent call last):
        ...
    ValueError: unknown admission policy 'drop'; choose from ('reject', 'queue')
    """

    max_queue_sites: int = 512
    max_tenant_sites: Optional[int] = None
    coalesce_sites: int = 32
    coalesce_wait_ms: float = 2.0
    admission: str = "reject"
    default_deadline_s: float = 30.0
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_queue_sites < 1:
            raise ValueError(
                f"max_queue_sites must be >= 1, got {self.max_queue_sites}"
            )
        if self.max_tenant_sites is not None and self.max_tenant_sites < 1:
            raise ValueError(
                f"max_tenant_sites must be >= 1 or None, "
                f"got {self.max_tenant_sites}"
            )
        if self.coalesce_sites < 1:
            raise ValueError(
                f"coalesce_sites must be >= 1, got {self.coalesce_sites}"
            )
        # Chained comparisons, so NaN fails them too: an infinite or
        # NaN linger would hold a lone job forever, and a NaN deadline
        # never expires.
        if not 0 <= self.coalesce_wait_ms < math.inf:
            raise ValueError(
                f"coalesce_wait_ms must be a finite number >= 0, "
                f"got {self.coalesce_wait_ms}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.admission!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
        for name in ("default_deadline_s", "drain_timeout_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be a finite number > 0, got {value}"
                )


_JOB_IDS = itertools.count()


class SiteJob:
    """One accepted submission, queued for the coalescing batcher.

    Plain class (not a dataclass): it owns a mutable asyncio future and
    identity semantics are what the queue bookkeeping wants.
    """

    __slots__ = ("job_id", "tenant", "sites", "future", "enqueued_at",
                 "deadline_at")

    def __init__(self, tenant, sites, future, enqueued_at, deadline_at):
        self.job_id = next(_JOB_IDS)
        self.tenant = tenant
        self.sites = sites
        self.future = future
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at

    @property
    def num_sites(self) -> int:
        return len(self.sites)


__all__ = [
    "ADMISSION_POLICIES",
    "DEFAULT_TENANT",
    "DeadlineExceeded",
    "ServeError",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceSaturated",
    "SiteJob",
]
