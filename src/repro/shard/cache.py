"""Content-addressed cross-request caching of whole site results.

Multi-tenant cohort traffic duplicates at site granularity *across*
requests: two tenants re-submitting the same cohort region produce
byte-identical :class:`RealignmentSite` inputs,
so the entire :class:`~repro.realign.whd.SiteResult` can be reused --
no kernel, no dispatch, no worker round-trip.

The cache is **content-addressed**: the key is a canonical SHA-256
over exactly the inputs that decide the architecturally visible outputs
(:meth:`SiteResult.same_outputs <repro.realign.whd.SiteResult
.same_outputs>`: picked consensus, realign flags, new positions) --

- the consensus set (count, lengths, bases; consensus 0 is the
  reference window),
- every read's bases and quality bytes,
- ``scoring``, the one :class:`~repro.engine.parallel.EngineConfig`
  field that can change them (it picks the Algorithm 2 score, hence
  the consensus).

Deliberately **excluded** from the key:

- ``chrom`` and ``start`` -- WHD is translation-invariant: the grids,
  scores, and realign flags depend only on base/quality content, and
  the only coordinate-dependent output (``new_pos = min_whd_idx[best]
  + start``) is reconstructed at lookup time from the cached
  start-relative offsets. A cohort region re-submitted at a lifted
  coordinate (or a PCR-duplicated window on another contig) still
  hits.
- ``kernel``, ``prefilter``, ``workers``, ``batch`` -- all five kernels
  are exact with the prefilter on or off and the dispatch layer never
  changes results (pinned by the golden matrix), so caching across
  them is sound by construction.

So a hit guarantees ``same_outputs``, **not** grid identity: the cached
``min_whd`` / ``min_whd_idx`` / ``scores`` are whatever the inserting
run's kernel left there, and the ``fft`` kernel with the prefilter on
leaves sentinels in the cells it pruned where the other kernels hold
exact values. ``tests/test_shard.py::TestSiteCacheKey`` lists every
``EngineConfig`` field as keyed or excluded and fails on a new field
that is in neither list.

Capacity is a **byte budget** over the stored numpy arrays (LRU, sized
in bytes since site results vary by orders of magnitude). Thread-safe:
the serving plane snapshots the counters from the event loop while the
engine executor thread looks up and inserts.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.realign.site import RealignmentSite
from repro.realign.whd import SiteResult

#: Fixed per-entry bookkeeping charge (key, OrderedDict node, dataclass)
#: on top of the stored arrays' bytes.
ENTRY_OVERHEAD_BYTES = 128


def site_cache_key(site: RealignmentSite, config) -> bytes:
    """Canonical content hash of one site's kernel inputs.

    ``config`` is an :class:`~repro.engine.parallel.EngineConfig` (or
    anything with ``scoring``); see the module docstring for what is
    hashed and what is deliberately excluded.
    """
    digest = hashlib.sha256()
    scoring = getattr(config, "scoring", "similarity").encode()
    digest.update(struct.pack("<H", len(scoring)))
    digest.update(scoring)
    digest.update(struct.pack("<I", site.num_consensuses))
    for consensus in site.consensuses:
        raw = consensus.encode()
        digest.update(struct.pack("<I", len(raw)))
        digest.update(raw)
    digest.update(struct.pack("<I", site.num_reads))
    for read, qual in zip(site.reads, site.quals):
        raw = read.encode()
        digest.update(struct.pack("<I", len(raw)))
        digest.update(raw)
        digest.update(qual.tobytes())
    return digest.digest()


@dataclass(frozen=True)
class CachedSiteResult:
    """One site result stored start-independently.

    ``new_pos`` is the only coordinate-dependent field of a
    :class:`SiteResult` (``min_whd_idx`` values are offsets *within* a
    consensus), so the cache stores ``new_pos_rel = new_pos - start``
    for realigned reads and rebuilds ``new_pos`` against the
    requesting site's ``start`` on every hit -- byte-identical to a
    fresh kernel run at any coordinate.
    """

    best_cons: int
    scores: np.ndarray
    min_whd: np.ndarray
    min_whd_idx: np.ndarray
    realign: np.ndarray
    new_pos_rel: np.ndarray

    @classmethod
    def from_result(cls, result: SiteResult, start: int) -> "CachedSiteResult":
        rel = np.where(result.realign, result.new_pos - np.int64(start),
                       np.int64(-1)).astype(np.int64)
        return cls(
            best_cons=int(result.best_cons),
            scores=result.scores,
            min_whd=result.min_whd,
            min_whd_idx=result.min_whd_idx,
            realign=result.realign,
            new_pos_rel=rel,
        )

    def materialize(self, start: int) -> SiteResult:
        new_pos = np.where(self.realign, self.new_pos_rel + np.int64(start),
                           np.int64(-1)).astype(np.int64)
        return SiteResult(
            best_cons=self.best_cons,
            scores=self.scores,
            min_whd=self.min_whd,
            min_whd_idx=self.min_whd_idx,
            realign=self.realign,
            new_pos=new_pos,
        )

    @property
    def nbytes(self) -> int:
        return ENTRY_OVERHEAD_BYTES + sum(
            array.nbytes for array in (
                self.scores, self.min_whd, self.min_whd_idx,
                self.realign, self.new_pos_rel,
            )
        )


class SiteResultCache:
    """Bounded LRU from canonical site keys to whole site results.

    >>> from repro.engine import EngineConfig
    >>> cache = SiteResultCache(capacity_bytes=1 << 20)
    >>> cache.hits, cache.misses, len(cache)
    (0, 0, 0)
    >>> SiteResultCache(capacity_bytes=0)
    Traceback (most recent call last):
        ...
    ValueError: cache capacity must be positive, got 0
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError(
                f"cache capacity must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0
        self.current_bytes = 0
        self._entries: "OrderedDict[bytes, CachedSiteResult]" = OrderedDict()
        self._lock = threading.Lock()

    @classmethod
    def from_megabytes(cls, megabytes: float) -> "SiteResultCache":
        return cls(capacity_bytes=int(megabytes * (1 << 20)))

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes, start: int) -> Optional[SiteResult]:
        """The cached result rebuilt at ``start``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return entry.materialize(start)

    def put(self, key: bytes, start: int, result: SiteResult) -> None:
        entry = CachedSiteResult.from_result(result, start)
        if entry.nbytes > self.capacity_bytes:
            return  # one oversized site must not wipe the whole cache
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old.nbytes
            self._entries[key] = entry
            self.current_bytes += entry.nbytes
            self.inserts += 1
            while self.current_bytes > self.capacity_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.current_bytes -= evicted.nbytes
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (benchmarks re-measure cold starts)."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, int]:
        """Cumulative counters, named for the shared counter fabric."""
        with self._lock:
            return {
                "cache.hits": self.hits,
                "cache.misses": self.misses,
                "cache.evictions": self.evictions,
                "cache.inserts": self.inserts,
                "cache.bytes": self.current_bytes,
                "cache.entries": len(self._entries),
            }


def lookup_sites(
    cache: Optional[SiteResultCache],
    sites: Sequence[RealignmentSite],
    config,
) -> Tuple[List[Optional[SiteResult]], List[int], List[Optional[bytes]]]:
    """Consult the cache for every site in one pass.

    Returns ``(results, miss_indices, keys)``: ``results[i]`` is the
    cached result or ``None``, ``miss_indices`` lists the positions
    the caller must still compute, and ``keys[i]`` is the canonical
    key (``None`` everywhere when no cache is configured) for
    inserting the computed results afterwards.
    """
    if cache is None:
        return ([None] * len(sites), list(range(len(sites))),
                [None] * len(sites))
    results: List[Optional[SiteResult]] = []
    misses: List[int] = []
    keys: List[Optional[bytes]] = []
    for index, site in enumerate(sites):
        key = site_cache_key(site, config)
        keys.append(key)
        hit = cache.get(key, site.start)
        results.append(hit)
        if hit is None:
            misses.append(index)
    return results, misses, keys


__all__ = [
    "CachedSiteResult",
    "ENTRY_OVERHEAD_BYTES",
    "SiteResultCache",
    "lookup_sites",
    "site_cache_key",
]
