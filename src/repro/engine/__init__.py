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
- :mod:`repro.engine.parallel` -- the one chunk dispatch loop: an
  optional site-result cache in front, a fault-tolerant worker pool
  with work-stealing and an incremental reordering merge that emits
  results in deterministic chunk order;
- :mod:`repro.engine.stream` -- the streaming data plane: the same loop
  with a bounded in-flight window.

See ``docs/ARCHITECTURE.md`` for the data flow and
``docs/PERFORMANCE.md`` for kernel selection and measured speedups.
"""

from repro.engine.autotune import KERNELS, KERNEL_CHOICES, dispatch_realign
from repro.engine.batch import (
    PackedSite,
    fast_fft_length,
    min_whd_grid_batched,
    pair_lower_bounds,
    realign_site_batched,
)
from repro.engine.bitpack import (
    PackedConsensus,
    PackedRead,
    min_whd_grid_bitpacked,
    pack_bases,
    realign_site_bitpacked,
)
from repro.engine.native import (
    min_whd_grid_native,
    native_available,
    native_backend_name,
    realign_site_native,
    warmup_native,
)
from repro.engine.parallel import (
    Engine,
    EngineConfig,
    ReorderBuffer,
    ShardStats,
    resolve_engine,
)
from repro.engine.stream import StreamingEngine
from repro.engine.prefilter import (
    PREFILTER_TOLERANCE,
    PrefilterStats,
    consensus_keep_mask,
    offset_candidates,
    pair_bounds,
    pairs_cannot_beat_reference,
)

__all__ = [
    "Engine",
    "EngineConfig",
    "KERNELS",
    "KERNEL_CHOICES",
    "PackedConsensus",
    "PackedRead",
    "PackedSite",
    "PrefilterStats",
    "PREFILTER_TOLERANCE",
    "ReorderBuffer",
    "ShardStats",
    "StreamingEngine",
    "consensus_keep_mask",
    "dispatch_realign",
    "fast_fft_length",
    "min_whd_grid_batched",
    "min_whd_grid_bitpacked",
    "min_whd_grid_native",
    "native_available",
    "native_backend_name",
    "offset_candidates",
    "pack_bases",
    "pair_bounds",
    "pair_lower_bounds",
    "pairs_cannot_beat_reference",
    "realign_site_batched",
    "realign_site_bitpacked",
    "realign_site_native",
    "resolve_engine",
    "warmup_native",
]
