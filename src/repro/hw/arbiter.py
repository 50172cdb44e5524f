"""Round-robin arbiters.

Figure 6's memory fabric has two arbitration levels: each IR unit's five
memory channels (three MemReaders + two MemWriters) coalesce through an
*Intra-IR Mem ARB 5:1*, and the 32 per-unit channels coalesce through the
*IR Mem ARB 32:1* before the AXI crossbar. The functional model is a
work-conserving round-robin arbiter; tests pin fairness (no starvation,
bounded wait) and work conservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class RoundRobinArbiter:
    """N-requester, 1-grant round-robin arbiter.

    Call :meth:`grant` once per cycle with the set of asserted request
    lines; the arbiter grants one and advances its pointer past the
    winner, which yields the classic fairness bound (any continuously
    asserted request is granted within N cycles).
    """

    num_requesters: int
    _pointer: int = 0
    grants: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_requesters <= 0:
            raise ValueError("arbiter needs at least one requester")

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        """Grant one of ``requests`` (requester indices); None if idle."""
        active = set(requests)
        for requester in active:
            if not 0 <= requester < self.num_requesters:
                raise ValueError(
                    f"requester {requester} outside [0, {self.num_requesters})"
                )
        if not active:
            return None
        for offset in range(self.num_requesters):
            candidate = (self._pointer + offset) % self.num_requesters
            if candidate in active:
                self._pointer = (candidate + 1) % self.num_requesters
                self.grants[candidate] = self.grants.get(candidate, 0) + 1
                return candidate
        raise AssertionError("unreachable: active set was non-empty")

    def drain(self, request_counts: Sequence[int]) -> List[int]:
        """Simulate until all queued requests are served; returns the
        grant order. Used by tests to check bounded unfairness."""
        remaining = list(request_counts)
        if len(remaining) != self.num_requesters:
            raise ValueError("one count per requester required")
        order: List[int] = []
        while any(count > 0 for count in remaining):
            active = [i for i, count in enumerate(remaining) if count > 0]
            winner = self.grant(active)
            remaining[winner] -= 1
            order.append(winner)
        return order
