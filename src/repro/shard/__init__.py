"""Horizontal shard plane + content-addressed cross-request cache.

The fleet-level scaling layer (docs/SHARDING.md): a region-hash chunk
plan on the engines' one dispatch loop with byte-identical scatter,
plus a canonical-hash :class:`SiteResultCache` that short-circuits
whole sites for duplicate-heavy multi-tenant traffic.
"""

from repro.shard.cache import (
    CachedSiteResult,
    SiteResultCache,
    lookup_sites,
    site_cache_key,
)
from repro.shard.plane import (
    DEFAULT_REGION_SPAN,
    ShardPlane,
    ShardPlaneConfig,
    shard_for,
)

__all__ = [
    "CachedSiteResult",
    "DEFAULT_REGION_SPAN",
    "ShardPlane",
    "ShardPlaneConfig",
    "SiteResultCache",
    "lookup_sites",
    "shard_for",
    "site_cache_key",
]
