"""Horizontal shard plane: a region-hash chunk plan on the one dispatch loop.

The paper's cloud argument is fleet-level -- INDEL realignment scales
by adding accelerator-backed instances behind a partitioner, not by
making one instance infinitely fast. :class:`ShardPlane` is that
partitioner for the host software plane, and it is *only* a
partitioner: an :class:`~repro.engine.parallel.Engine` whose chunk
plan groups sites by a **stable contig/region hash**
(:func:`shard_for`) instead of cutting the input contiguously. It
decides three things:

1. the :class:`~repro.shard.cache.SiteResultCache` consult in front of
   everything -- the content-addressed layer that makes duplicate-heavy
   multi-tenant traffic cheap (docs/SHARDING.md);
2. the chunk plan -- cache misses ordered home-major, cut at home
   boundaries and every ``config.batch`` sites, so a chunk never mixes
   homes;
3. the scatter of results back to original site indices, so output is
   byte-identical to the serial path at any shard count, under any
   fault schedule and in any cache state (the golden matrix and
   ``tests/test_shard_properties.py`` pin this).

Who runs a chunk, when it is declared lost and how it is retried,
bisected or run inline is :class:`~repro.resilience.workers
.ResilientPool`'s answer -- the same one ``--workers N`` gets, with one
worker per shard ("dispatch to any free unit on completion response",
the paper's asynchronous-parallel schedule). The pool's ``worker.*``
counters and ``CAT_RECOVERY`` spans therefore describe shard runs too.

The home is what the plane *observes* by: ``shard.<home>.*`` counters
and :meth:`ShardPlane.occupancy` tally chunks, sites and busy time per
home shard, and every completed chunk becomes a ``CAT_SHARD`` span on
its home's track (:func:`repro.perf.fleet.record_shard_chunks`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence

from repro.engine.parallel import Engine, EngineConfig
from repro.realign.site import RealignmentSite
from repro.realign.whd import SiteResult
from repro.shard.cache import SiteResultCache, lookup_sites

#: Default width of one partition region, in reference bases. Matches
#: the order of the serving plane's region-job gap
#: (:data:`repro.serve.jobs.DEFAULT_REGION_GAP`): sites within one
#: locality window share a home shard, distinct windows spread.
DEFAULT_REGION_SPAN = 4096


def shard_for(chrom: str, start: int, shards: int,
              region_span: int = DEFAULT_REGION_SPAN) -> int:
    """Stable home shard of a site: hash of its contig/region bucket.

    The hash is a Fowler-Noll-Vo fold of ``"{chrom}:{start //
    region_span}"`` -- deterministic across processes and Python
    invocations (no ``PYTHONHASHSEED`` dependence), so a region always
    has the same home, whoever computes it.

    >>> shard_for("22", 10_000, 4) == shard_for("22", 10_000, 4)
    True
    >>> all(0 <= shard_for("22", s, 3) < 3 for s in range(0, 100_000, 977))
    True
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    key = f"{chrom}:{start // region_span}".encode()
    digest = 0xCBF29CE484222325  # FNV-1a 64-bit offset basis
    for byte in key:
        digest ^= byte
        digest = (digest * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return digest % shards


@dataclass(frozen=True)
class ShardPlaneConfig:
    """The partition: how many homes, how wide a region bucket.

    >>> ShardPlaneConfig(shards=0)
    Traceback (most recent call last):
        ...
    ValueError: shards must be >= 1, got 0
    """

    shards: int = 2
    region_span: int = DEFAULT_REGION_SPAN

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.region_span < 1:
            raise ValueError("region_span must be >= 1")


class ShardPlane(Engine):
    """An engine whose chunks are cut by home shard, behind a cache.

    Drop-in wherever an engine goes (``run_sites(sites, telemetry=)``
    plus ``close()``): :class:`~repro.realign.realigner.IndelRealigner`
    ``engine=``, :class:`~repro.serve.service.RealignmentService`, the
    CLI's ``--shards``. The pool has one worker per shard whatever
    ``config.workers`` says; ``shards=1`` (like any single-chunk run)
    realigns inline in the parent and creates no process or thread --
    the deterministic baseline the scaling bench compares against.

    ``recovery`` is the engine's: ``None`` means
    :meth:`~repro.resilience.workers.WorkerRecovery.from_env`, so CI
    chaos reruns reach the shard plane with no plumbing.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        shards: Optional[int] = None,
        plane: Optional[ShardPlaneConfig] = None,
        cache: Optional[SiteResultCache] = None,
        recovery=None,
    ):
        if plane is None:
            plane = ShardPlaneConfig(
                shards=shards if shards is not None else 2
            )
        elif shards is not None and shards != plane.shards:
            raise ValueError(
                f"shards={shards} contradicts plane.shards={plane.shards}"
            )
        config = config if config is not None else EngineConfig()
        super().__init__(replace(config, workers=plane.shards),
                         recovery=recovery)
        self.plane = plane
        self.cache = cache

    def _reset(self) -> None:
        super()._reset()
        #: The latest plan: for each position of the home-major order,
        #: its index in the planned site list; for each chunk, its home.
        self._order: List[int] = []
        self._homes: List[int] = []
        self._occupancy: Dict[str, float] = {}

    def _chunks(
        self, sites: Sequence[RealignmentSite]
    ) -> List[List[RealignmentSite]]:
        """Group by home shard, then cut every ``config.batch`` sites.

        Within a home, sites keep input order; chunk ids are assigned
        home-major. Neither ordering is visible in the output --
        :meth:`stream_sites` scatters by ``_order``.
        """
        by_home: Dict[int, List[int]] = {}
        for index, site in enumerate(sites):
            home = shard_for(site.chrom, site.start, self.plane.shards,
                             self.plane.region_span)
            by_home.setdefault(home, []).append(index)
        chunks: List[List[RealignmentSite]] = []
        for home in sorted(by_home):
            bucket = by_home[home]
            for lo in range(0, len(bucket), self.config.batch):
                part = bucket[lo:lo + self.config.batch]
                self._order.extend(part)
                self._homes.append(home)
                chunks.append([sites[index] for index in part])
        return chunks

    def stream_sites(
        self,
        sites: Sequence[RealignmentSite],
        telemetry=None,
    ) -> Iterator[SiteResult]:
        """Yield one :class:`SiteResult` per site, in input order.

        The scatter back from home-major chunk order needs every chunk,
        so nothing is yielded before the last one completes: the plane
        runs the barrier window.
        """
        sites = list(sites)
        self._reset()
        if not sites:
            return
        run_start = time.perf_counter()
        results, misses, keys = lookup_sites(self.cache, sites, self.config)
        counters: Counter = Counter()
        if self.cache is not None:
            counters["shard.cache_hits"] = len(sites) - len(misses)
            counters["shard.cache_misses"] = len(misses)
        fresh = list(super().stream_sites([sites[i] for i in misses],
                                          telemetry=telemetry))
        for position, result in zip(self._order, fresh):
            index = misses[position]
            results[index] = result
            if self.cache is not None:
                self.cache.put(keys[index], sites[index].start, result)
        if fresh:
            counters["shard.dispatched_chunks"] = len(self._homes)
            counters["shard.completed_chunks"] = len(self.shard_stats)
            counters["shard.sites"] = len(fresh)
        for stat in self.shard_stats:
            home = f"shard.{self._homes[stat.shard]}"
            counters[f"{home}.chunks"] += 1
            counters[f"{home}.sites"] += stat.sites
            counters[f"{home}.busy_us"] += int((stat.end - stat.start) * 1e6)
        wall_us = max(time.perf_counter() - run_start, 1e-9) * 1e6
        self._occupancy = {
            f"shard{home}": min(counters[f"shard.{home}.busy_us"] / wall_us,
                                1.0)
            for home in sorted(set(self._homes))
        }
        retries = self.recovery_counters.get("worker.retries")
        if retries:
            counters["shard.retries"] = retries
        #: The pool's ``worker.*`` observations plus the plane's
        #: ``shard.*``; the serving plane folds these per dispatch.
        self.recovery_counters = {**self.recovery_counters, **counters}
        if telemetry is not None:
            # The loop folded the kernel and worker.* counters already
            # (and nothing at all on an all-hits run).
            for name, value in counters.items():
                telemetry.count(name, value)
        yield from results

    def _record_timeline(self, telemetry, run_start: float) -> None:
        """``CAT_SHARD`` spans on one track per home shard (a shard run
        emits no ``CAT_ENGINE`` spans for the same chunks)."""
        from repro.perf.fleet import record_shard_chunks

        record_shard_chunks(
            telemetry,
            [(self._homes[stat.shard], stat.shard, stat.sites, stat.start,
              stat.end) for stat in self.shard_stats],
            origin=run_start,
        )

    def occupancy(self) -> Dict[str, float]:
        """Latest run's busy fraction per home shard (chunk compute
        time of the home's chunks over the run's wall-clock)."""
        return dict(self._occupancy)


__all__ = [
    "DEFAULT_REGION_SPAN",
    "ShardPlane",
    "ShardPlaneConfig",
    "shard_for",
]
