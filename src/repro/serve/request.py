"""Request-plane vocabulary: configuration, job records, and errors.

The service works at *site* granularity -- the same unit the engines
batch and the accelerator dispatches -- so one network-level realign
request (a region's worth of reads) becomes one :class:`SiteJob`
carrying the region's built sites. Admission control counts sites, not
requests, because sites are what an engine dispatch holds: a
tenant submitting one 400-site request exerts the same pressure as 400
one-site requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: Tenant used when a request does not name one.
DEFAULT_TENANT = "anonymous"


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
      yet completed -- and with them the sites and results an engine
      dispatch holds until it returns. A submission that
      would exceed it is rejected at once with
      :class:`ServiceSaturated`; nothing waits for room. It bounds an
      engine batch too: the batcher dispatches what is queued, and
      nothing is queued that was not admitted.
    - ``default_deadline_s`` applies to requests that do not carry one.
    - ``drain_timeout_s`` bounds graceful shutdown: jobs still queued
      when it expires fail with :class:`ServiceClosed`.

    >>> ServiceConfig(max_queue_sites=0)
    Traceback (most recent call last):
        ...
    ValueError: max_queue_sites must be >= 1, got 0
    >>> ServiceConfig(drain_timeout_s=0)
    Traceback (most recent call last):
        ...
    ValueError: drain_timeout_s must be a finite number > 0, got 0
    """

    max_queue_sites: int = 512
    default_deadline_s: float = 30.0
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_queue_sites < 1:
            raise ValueError(
                f"max_queue_sites must be >= 1, got {self.max_queue_sites}"
            )
        # A chained comparison, so NaN fails it too: a NaN deadline
        # never expires.
        for name in ("default_deadline_s", "drain_timeout_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be a finite number > 0, got {value}"
                )


class SiteJob:
    """One accepted submission, queued for the batcher.

    Plain class (not a dataclass): it owns a mutable asyncio future and
    identity semantics are what the queue bookkeeping wants.
    """

    __slots__ = ("tenant", "sites", "future", "enqueued_at", "deadline_at")

    def __init__(self, tenant, sites, future, enqueued_at, deadline_at):
        self.tenant = tenant
        self.sites = sites
        self.future = future
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at

    @property
    def num_sites(self) -> int:
        return len(self.sites)


__all__ = [
    "DEFAULT_TENANT",
    "DeadlineExceeded",
    "ServeError",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceSaturated",
    "SiteJob",
]
