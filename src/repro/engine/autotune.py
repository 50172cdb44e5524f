"""Kernel names and the one place a site is routed to a kernel.

The repository carries five exact WHD kernels -- scalar
(:func:`repro.realign.whd.min_whd_pair` loops), vectorized
(:func:`repro.realign.whd.whd_profile` per pair), FFT-batched
(:mod:`repro.engine.batch`), bit-packed SWAR
(:mod:`repro.engine.bitpack`), and the compiled native tier
(:mod:`repro.engine.native`, the SWAR pipeline as machine code via
a ctypes-loaded C library). A kernel is one grid function,
``(site, scoring, telemetry) -> (min_whd, min_idx)``, and one row of
:data:`GRIDS`; :func:`dispatch_realign` hands every kernel's grids to
:func:`repro.realign.whd.select_and_realign`, which picks the
consensus, realigns the reads and counts the semantic ``kernel.*``
telemetry. The kernels produce byte-identical results, so the choice
only moves the time to produce them.

``kernel="auto"`` means ``native``: the compiled tier is the fastest
kernel on every site pool any workload produces (docs/PERFORMANCE.md,
"Kernel selection", has the ten-pool table), so the choice is a
constant, not a per-site model. The only observed input is the
platform: when no compiled backend loads (or ``REPRO_NATIVE=off``),
:func:`repro.engine.native.min_whd_grid_native` itself degrades to the
bitpack kernel, counts ``kernel.native.unavailable`` and warns once.
The other four kernels stay selectable by name: ``scalar``/``vector``
are the reference forms, ``fft`` is the benchmarks' pinned baseline and
oracle, ``bitpack`` is the no-compiler path.

(The module name is historical; the end-to-end benchmark imports
:func:`dispatch_realign` from here.)

Telemetry: :func:`dispatch_realign` counts ``kernel.chosen.<name>`` per
site when a session is passed.
"""

from __future__ import annotations

from repro.engine.native import min_whd_grid_native
from repro.kernels import KERNELS, KERNEL_CHOICES
from repro.realign.site import RealignmentSite
from repro.realign.whd import (
    SiteResult,
    min_whd_grid,
    min_whd_grid_scalar,
    select_and_realign,
)


def _fft(site, scoring, telemetry):
    from repro.engine.batch import min_whd_grid_batched

    return min_whd_grid_batched(site, scoring, telemetry)


def _bitpack(site, scoring, telemetry):
    from repro.engine.bitpack import min_whd_grid_bitpacked

    return min_whd_grid_bitpacked(site, scoring, telemetry)


#: Each kernel's grid function. The two numpy kernels load on first
#: use, so a run on ``native`` imports neither.
GRIDS = {
    "scalar": min_whd_grid_scalar,
    "vector": min_whd_grid,
    "fft": _fft,
    "bitpack": _bitpack,
    "native": min_whd_grid_native,
}


def dispatch_realign(
    site: RealignmentSite,
    kernel: str = "auto",
    scoring: str = "similarity",
    telemetry=None,
) -> SiteResult:
    """Run Algorithms 1 + 2 on ``site`` through the selected kernel.

    All kernels are exact, so the returned :class:`SiteResult` is
    byte-identical across choices; only the time to produce it varies.

    >>> from repro.experiments.figure4 import build_site
    >>> site = build_site()
    >>> results = [dispatch_realign(site, kernel=k) for k in
    ...            ("auto", "scalar", "vector", "fft", "bitpack", "native")]
    >>> all(r.same_outputs(results[0]) for r in results)
    True
    """
    if kernel not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {KERNEL_CHOICES}"
        )
    if kernel == "auto":
        kernel = "native"
    min_whd, min_idx = GRIDS[kernel](site, scoring, telemetry)
    result = select_and_realign(site, min_whd, min_idx, scoring, telemetry)
    if telemetry is not None:
        telemetry.count(f"kernel.chosen.{kernel}", 1)
    return result


__all__ = ["GRIDS", "KERNELS", "KERNEL_CHOICES", "dispatch_realign"]
