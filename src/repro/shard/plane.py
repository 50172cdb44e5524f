"""``ShardPlane``: the engine under the name the benchmark binds.

A shard was a chunk's *home*, and a home pinned nothing to a worker --
so ``shards=N`` is ``workers=N`` on the one dispatch loop
(:meth:`repro.engine.parallel.Engine.stream_sites`), and the cache in
front of it is the engine's own ``cache=``. New code constructs an
:class:`~repro.engine.parallel.Engine` directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.engine.parallel import Engine, EngineConfig


class ShardPlane(Engine):
    """``Engine(replace(config, workers=shards), cache=)``.

    >>> ShardPlane(EngineConfig(workers=4), shards=1).config.workers
    1
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 shards: int = 2, cache=None):
        super().__init__(replace(config or EngineConfig(), workers=shards),
                         cache=cache)


__all__ = ["ShardPlane"]
