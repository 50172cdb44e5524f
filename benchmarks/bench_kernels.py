"""Kernel benchmarks: vector vs FFT vs bitpack vs native.

One pool per site regime runs through every dispatchable kernel (the
scalar transcription baseline is excluded -- it is orders of magnitude
off on these shapes); ``test_kernels`` times each (regime, kernel) cell
over ``KERNEL_ROUNDS`` rounds after one warm-up round:

- ``mixed``       -- ``BENCH_PROFILE`` sites across the standard
  complexity ladder: ragged read lengths and generous window slack,
  the FFT kernel's home regime;
- ``uniform250``  -- fixed 250 bp reads with ~4 bp of window slack:
  only a handful of offsets are in range, so the FFT kernel wastes its
  padded transform while the SWAR kernel screens exactly those
  offsets. This is the Illumina-like fixed-read-length regime where
  bitpack wins;
- ``short64deep`` -- fixed 64 bp reads, deep pileup, tight window: the
  same few-offsets structure at a smaller word count.

``test_kernels_gate`` is the CI acceptance gate, asserting the three
claims docs/PERFORMANCE.md makes about the kernels:

1. when a compiled backend is available, ``native`` finishes within
   ``AUTO_TOLERANCE`` of every other kernel on every regime -- the
   evidence behind ``auto`` = ``native`` (if another kernel starts
   winning a regime, the constant is wrong and this fails);
2. on at least one fixed-read-length regime, ``bitpack`` strictly
   beats ``fft`` (the regime the SWAR kernel was built for);
3. when a compiled backend is available, ``native`` runs at least as
   fast as ``bitpack`` on at least one fixed-read-length regime (the
   compiled tier must actually buy something over the interpreted SWAR
   kernel it replaces). The native backend is JIT-warmed before any
   timing, so one-time compilation is excluded from every round.

On hosts with no backend at all checks 1 and 3 are skipped --
``native`` is then bitpack plus a fallback branch, and gating on that
margin would gate on noise.

A failing check does not block immediately: the gate re-measures at
escalating best-of counts (``GATE_ROUNDS``) and merges per-kernel
bests, so only a slowdown that persists across every round -- a real
regression, not a noisy co-tenant -- fails CI.

The microbenchmarks at the end time one WHD call at a time with
pytest-benchmark's normal repetition: the vectorised ``whd_profile``,
the simulator's Hamming-distance calculator in its analytic 32-lane and
1-lane forms, and one site through a modelled IR unit.

Refresh the committed numbers with:

    PYTHONPATH=src REPRO_BENCH_SITES=48 python -m pytest \
        benchmarks/bench_kernels.py --benchmark-json=benchmarks/BENCH_kernels.json
"""

import gc
import time

import numpy as np
import pytest

from repro.core.accelerator import IRUnit, UnitConfig
from repro.core.hdc import HammingDistanceCalculator
from repro.engine.autotune import dispatch_realign
from repro.engine.native import native_available, warmup_native
from repro.realign.whd import whd_profile
from repro.workloads.generator import (
    BENCH_PROFILE,
    SiteProfile,
    synthesize_site,
)

from conftest import bench_sites

#: Timed rounds per (regime, kernel) cell of ``test_kernels``, after one
#: untimed warm-up round, so the committed JSON's min and median rank
#: the kernels rather than one cold call each.
KERNEL_ROUNDS = 5

#: Kernels the pools run through (``auto`` is ``native``).
BENCHED_KERNELS = ("vector", "fft", "bitpack", "native")
COMPLEXITIES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
SCENARIOS = ("mixed", "uniform250", "short64deep")

#: ``auto`` = ``native`` gate allowance: ``native`` must finish within
#: this factor of every other kernel on every regime. The margin
#: absorbs shared-runner jitter, which on sub-100 ms pool runs
#: routinely reaches 20%+ even under best-of-N sampling.
AUTO_TOLERANCE = 1.25

#: Measurement escalation ladder: best-of counts per gate round. The
#: first round is cheap; if any gate check fails on its numbers, the
#: gate re-measures at the next rung and merges per-kernel bests before
#: asserting. A transient co-tenant spike on a shared runner therefore
#: cannot fail CI on its own -- only a slowdown that persists across
#: every round (a real regression) blocks the PR.
GATE_ROUNDS = (3, 6, 9)

#: Fixed-read-length regimes. ``read_tail_sigma=0`` pins every read to
#: the profile length, and the small window slack leaves only a few
#: valid offsets per pair -- the structure that favours the SWAR
#: screen over a padded full-correlation FFT.
UNIFORM250 = SiteProfile(
    name="uniform250",
    mean_consensuses=10.0,
    mean_reads=128.0,
    read_length_range=(250, 250),
    window_slack_mean=4.0,
    read_tail_sigma=0.0,
)
SHORT64DEEP = SiteProfile(
    name="short64deep",
    mean_consensuses=8.0,
    mean_reads=160.0,
    read_length_range=(64, 64),
    window_slack_mean=3.0,
    read_tail_sigma=0.0,
)

_pools = {}


def _site_pool(scenario):
    """Deterministic site pool for one regime (built once per run)."""
    if scenario not in _pools:
        rng = np.random.default_rng(2025)
        n = bench_sites()
        if scenario == "mixed":
            sites = [
                synthesize_site(rng, BENCH_PROFILE,
                                complexity=COMPLEXITIES[i % len(COMPLEXITIES)])
                for i in range(max(n // 2, 8))
            ]
        elif scenario == "uniform250":
            sites = [synthesize_site(rng, UNIFORM250)
                     for _ in range(max(n // 8, 6))]
        elif scenario == "short64deep":
            sites = [synthesize_site(rng, SHORT64DEEP)
                     for _ in range(max(n // 8, 6))]
        else:
            raise ValueError(scenario)
        _pools[scenario] = sites
    return _pools[scenario]


def _run(scenario, kernel):
    return [dispatch_realign(site, kernel=kernel)
            for site in _site_pool(scenario)]


@pytest.mark.parametrize("kernel", BENCHED_KERNELS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_kernels(benchmark, scenario, kernel):
    _site_pool(scenario)  # build outside the measurement
    results = benchmark.pedantic(_run, args=(scenario, kernel),
                                 rounds=KERNEL_ROUNDS, iterations=1,
                                 warmup_rounds=1)
    assert len(results) == len(_site_pool(scenario))


def _interleaved_best_of(runs, scenario, kernels):
    """Best-of-``runs`` per kernel, measured round-robin.

    Interleaving the kernels inside each round (rather than timing one
    kernel's N runs back to back) spreads slow drift -- GC pressure
    from earlier benchmarks, thermal throttling, a noisy co-tenant --
    evenly across contenders, so a drift window cannot make one kernel
    look structurally slower. Each run is preceded by a collection so
    no kernel is billed for the previous one's garbage."""
    best = {kernel: float("inf") for kernel in kernels}
    for _ in range(runs):
        for kernel in kernels:
            gc.collect()
            start = time.perf_counter()
            _run(scenario, kernel)
            best[kernel] = min(best[kernel],
                               time.perf_counter() - start)
    return best


def _gate_failures(times):
    """Evaluate the gate claims on merged bests; return messages.

    1. with a compiled backend available, ``native`` within
       ``AUTO_TOLERANCE`` of every other kernel on every regime (what
       makes ``auto`` = ``native`` the right constant). Skipped without
       a backend.
    2. ``bitpack`` strictly beats ``fft`` on at least one
       fixed-read-length regime -- the SWAR kernel's raison d'etre: on
       fixed-read-length sites with tiny window slack, screening only
       the in-range offsets beats a padded full correlation. One
       winning regime is the claim (docs/PERFORMANCE.md); requiring
       both to win every run would gate on scheduler noise at these ms
       scales.
    3. with a compiled backend available, ``native`` runs at least as
       fast as ``bitpack`` on at least one fixed-read-length regime --
       same single-regime logic as check 2. Skipped without a backend
       (native is then bitpack behind a fallback branch).
    """
    failures = []
    if native_available():
        for scenario in SCENARIOS:
            winner = min(times[scenario], key=times[scenario].get)
            best = times[scenario][winner]
            if times[scenario]["native"] > best * AUTO_TOLERANCE:
                failures.append(
                    f"native is no longer the {scenario} winner "
                    f"({winner}): native {times[scenario]['native']:.3f}s "
                    f"vs {best:.3f}s * {AUTO_TOLERANCE}"
                )
    ratios = {
        s: times[s]["bitpack"] / times[s]["fft"]
        for s in ("uniform250", "short64deep")
    }
    if min(ratios.values()) >= 1.0:
        failures.append(
            "bitpack no longer beats fft on any fixed-read-length "
            f"regime: bitpack/fft ratios {ratios}"
        )
    if native_available():
        native_ratios = {
            s: times[s]["native"] / times[s]["bitpack"]
            for s in ("uniform250", "short64deep")
        }
        if min(native_ratios.values()) > 1.0:
            failures.append(
                "native no longer matches bitpack on any "
                "fixed-read-length regime: native/bitpack ratios "
                f"{native_ratios}"
            )
    return failures


def test_kernels_gate():
    """CI acceptance gate: native is the per-regime winner (so ``auto``
    = ``native`` holds), and the SWAR kernel beats the FFT kernel on a
    fixed-read-length regime.

    Timings are interleaved best-of-N (noise is one-sided) with the
    documented ``AUTO_TOLERANCE`` on the native comparison, escalating
    through ``GATE_ROUNDS`` on failure so shared-runner interference
    has to persist across every round to block a PR."""
    # One-time JIT / shared-library compilation happens here, not
    # inside any timed round.
    warmup_native()
    # Pin exactness once (and warm every kernel) before timing.
    for scenario in SCENARIOS:
        want = _run(scenario, "vector")
        for kernel in ("fft", "bitpack", "native", "auto"):
            for got, ref in zip(_run(scenario, kernel), want):
                assert got.same_outputs(ref), (scenario, kernel)

    times = {s: {k: float("inf") for k in BENCHED_KERNELS}
             for s in SCENARIOS}
    failures = []
    print()
    for round_no, runs in enumerate(GATE_ROUNDS, start=1):
        for scenario in SCENARIOS:
            round_best = _interleaved_best_of(
                runs, scenario, BENCHED_KERNELS
            )
            for kernel, elapsed in round_best.items():
                times[scenario][kernel] = min(
                    times[scenario][kernel], elapsed
                )
            row = "  ".join(f"{k} {times[scenario][k] * 1e3:7.1f} ms"
                            for k in BENCHED_KERNELS)
            print(f"  {scenario:<12} ({len(_site_pool(scenario)):2d} "
                  f"sites)  {row}  best: "
                  f"{min(times[scenario], key=times[scenario].get)}")
        failures = _gate_failures(times)
        if not failures:
            break
        if round_no < len(GATE_ROUNDS):
            print(f"  gate round {round_no} (best-of-{runs}) failed "
                  f"{len(failures)} check(s); escalating to "
                  f"best-of-{GATE_ROUNDS[round_no]}")
    assert not failures, "\n".join(failures)


def _pair(m=1024, n=200, seed=0):
    rng = np.random.default_rng(seed)
    codes = np.frombuffer(b"ACGT", dtype=np.uint8)
    cons = codes[rng.integers(0, 4, m)]
    read = np.concatenate([cons[100:100 + n // 2],
                           codes[rng.integers(0, 4, n - n // 2)]])
    quals = rng.integers(20, 41, n).astype(np.uint8)
    return cons, read, quals


def test_whd_profile_kernel(benchmark):
    cons, read, quals = _pair()
    profile = benchmark(whd_profile, cons, read, quals)
    assert profile.shape == (1024 - 200 + 1,)


def test_hdc_analytic_parallel(benchmark):
    cons, read, quals = _pair()
    hdc = HammingDistanceCalculator(lanes=32, prune=True)
    result = benchmark(hdc.compute_pair, cons, read, quals)
    assert result.comparisons <= result.unpruned_comparisons


def test_hdc_analytic_scalar(benchmark):
    cons, read, quals = _pair()
    hdc = HammingDistanceCalculator(lanes=1, prune=True)
    result = benchmark(hdc.compute_pair, cons, read, quals)
    assert result.cycles > 0


def test_site_through_unit(benchmark):
    site = synthesize_site(np.random.default_rng(1), BENCH_PROFILE)
    unit = IRUnit(UnitConfig(lanes=32))
    result = benchmark(unit.run_site, site)
    assert result.matches(dispatch_realign(site, kernel="vector"))
