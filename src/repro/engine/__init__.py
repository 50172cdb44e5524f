"""Batched, filtered, parallel execution of the realignment kernel.

The paper keeps 32 hardware units saturated; this package is the
software analogue for the repository's numpy realigner. It layers
independent optimizations, each preserving byte-identical output:

- :mod:`repro.engine.batch` -- whole-site ``(C, R, K)`` tensor
  evaluation via FFT match counting (numpy's pocketfft) instead of
  per-pair loops;
- :mod:`repro.engine.bitpack` -- GateKeeper-style bit-packed SWAR
  kernel: 2-bit bases in uint64 lanes, 32 comparisons per word op;
- :mod:`repro.engine.native` -- the same SWAR pipeline as *compiled*
  machine code (a ctypes-loaded C library), with graceful
  degradation to bitpack when it cannot be built;
- :mod:`repro.engine.autotune` -- the kernel names and the one
  dispatch point (``--kernel auto`` means ``native``);
- :mod:`repro.engine.prefilter` -- GateKeeper-style count bounds that
  prune offsets, consensus rows, and cannot-beat-reference pairs;
- :mod:`repro.engine.parallel` -- the one entry point,
  ``Engine.run_sites``: an optional site-result cache in front, and
  chunks run inline or taken by whichever unit thread is free, merged
  back in deterministic chunk order.

See ``docs/ARCHITECTURE.md`` for the data flow and
``docs/PERFORMANCE.md`` for kernel selection and measured speedups.

A kernel is one grid function and one row of the dispatch table in
:mod:`repro.engine.autotune`. The table loads the FFT and bit-packing
kernels (and the prefilter) on first use, so importing :class:`Engine`
costs none of their code. Run a whole site through any kernel with
``dispatch_realign(site, kernel=...)``; import a grid function from the
module that defines it
(``from repro.engine.batch import min_whd_grid_batched``).
"""

from repro.engine.autotune import KERNELS, KERNEL_CHOICES, dispatch_realign
from repro.engine.parallel import (
    Engine,
    EngineConfig,
    ShardStats,
    resolve_engine,
)

# The old name of the engine, kept only because the end-to-end
# benchmark's stream probe imports it; new code uses Engine. It goes
# with that probe (ROADMAP 1(a)).
StreamingEngine = Engine

__all__ = [
    "Engine",
    "EngineConfig",
    "KERNELS",
    "KERNEL_CHOICES",
    "ShardStats",
    "StreamingEngine",
    "dispatch_realign",
    "resolve_engine",
]
