"""Kernel names and the one place a site is routed to a kernel.

The repository carries five exact WHD kernels -- scalar
(:func:`repro.realign.whd.min_whd_pair` loops), vectorized
(:func:`repro.realign.whd.whd_profile` per pair), FFT-batched
(:mod:`repro.engine.batch`), bit-packed SWAR
(:mod:`repro.engine.bitpack`), and the compiled native tier
(:mod:`repro.engine.native`, the SWAR pipeline as machine code via
a ctypes-loaded C library). They produce byte-identical
results, so the choice only moves the time to produce them.

``kernel="auto"`` means ``native``: the compiled tier is the fastest
kernel on every site pool any workload produces (docs/PERFORMANCE.md,
"Kernel selection", has the ten-pool table), so the choice is a
constant, not a per-site model. The only observed input is the
platform: when no compiled backend loads (or ``REPRO_NATIVE=off``),
:func:`repro.engine.native.realign_site_native` itself degrades to the
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

from repro.kernels import KERNELS, KERNEL_CHOICES
from repro.realign.site import RealignmentSite
from repro.realign.whd import SiteResult


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
    result = _run_kernel(site, kernel, scoring, telemetry)
    if telemetry is not None:
        telemetry.count(f"kernel.chosen.{kernel}", 1)
    return result


def _run_kernel(site, kernel, scoring, telemetry):
    if kernel == "fft":
        from repro.engine.batch import realign_site_batched

        return realign_site_batched(site, scoring=scoring,
                                    telemetry=telemetry)
    if kernel == "bitpack":
        from repro.engine.bitpack import realign_site_bitpacked

        return realign_site_bitpacked(
            site, scoring=scoring, telemetry=telemetry
        )
    if kernel == "native":
        from repro.engine.native import realign_site_native

        return realign_site_native(
            site, scoring=scoring, telemetry=telemetry
        )
    from repro.realign.whd import realign_site

    return realign_site(
        site, vectorized=(kernel == "vector"), scoring=scoring,
        telemetry=telemetry,
    )


__all__ = ["KERNELS", "KERNEL_CHOICES", "dispatch_realign"]
