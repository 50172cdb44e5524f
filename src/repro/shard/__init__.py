"""Content-addressed cross-request cache of whole site results.

:class:`SiteResultCache` short-circuits whole sites for duplicate-heavy
multi-tenant traffic (docs/SHARDING.md); the engines consult it through
their ``cache=`` parameter. :class:`ShardPlane` is kept as the name the
end-to-end benchmark binds: an :class:`~repro.engine.parallel.Engine`
with ``workers = shards``.
"""

from repro.shard.cache import (
    CachedSiteResult,
    SiteResultCache,
    lookup_sites,
    site_cache_key,
)
from repro.shard.plane import ShardPlane

__all__ = [
    "CachedSiteResult",
    "ShardPlane",
    "SiteResultCache",
    "lookup_sites",
    "site_cache_key",
]
