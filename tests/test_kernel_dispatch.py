"""Cross-kernel exactness and kernel-dispatch tests.

Five exact kernels implement Algorithm 1 -- scalar, vectorized,
FFT-batched, bit-packed SWAR, and the compiled native tier -- and
:mod:`repro.engine.autotune` routes each site to the one named. Two
properties keep that sound:

- **exactness**: every kernel produces cell-identical ``(min_whd,
  min_idx)`` grids and identical ``SiteResult`` outputs on any site,
  including degenerate shapes (read as long as the consensus, a single
  read, no alternate consensuses, N bases, zero qualities);
- **dispatch semantics**: ``auto`` means ``native`` (with or without
  a compiled backend, in-process and across every worker plane), and
  an explicitly requested kernel always runs.

The native tier never *requires* a compiled backend: without one it
degrades to bitpack, so every parity test here runs (and must pass)
either way. Only the tests that poke a backend *directly* skip when
none is available.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.autotune import KERNELS, dispatch_realign
from repro.engine.batch import min_whd_grid_batched
from repro.engine.bitpack import min_whd_grid_bitpacked
from repro.engine.native import min_whd_grid_native, native_available
from repro.realign.site import RealignmentSite, SiteLimits
from repro.realign.whd import min_whd_grid, min_whd_grid_scalar
from repro.workloads.generator import (
    BENCH_PROFILE,
    REAL_PROFILE,
    SiteProfile,
    synthesize_site,
)


class Sink:
    """Counter-only telemetry stand-in."""

    def __init__(self):
        self.counters = {}

    def count(self, name, delta=1):
        self.counters[name] = self.counters.get(name, 0) + int(delta)


def chosen(counters):
    """The ``kernel.chosen.*`` subset of a flat counter mapping."""
    return {name: value for name, value in counters.items()
            if name.startswith("kernel.chosen.")}


@pytest.fixture()
def fresh_backend():
    """Re-probe the native backend around a test and restore after."""
    from repro.engine import native

    native.reset_backend()
    yield native
    native.reset_backend()


def ragged_site(draw):
    """Adversarial site shapes for kernel parity.

    Reads may equal a consensus length exactly (n == m leaves one
    offset), sites may have a single read or no alternates, bases
    include ``N`` (matches only itself in every kernel), and qualities
    include 0.
    """
    num_reads = draw(st.integers(1, 5))
    read_lens = [draw(st.integers(1, 12)) for _ in range(num_reads)]
    longest = max(read_lens)
    num_cons = draw(st.integers(1, 4))
    cons = tuple(
        draw(st.text(alphabet="ACGTN", min_size=m, max_size=m))
        for m in (
            draw(st.integers(longest, longest + 24))
            for _ in range(num_cons)
        )
    )
    reads = tuple(
        draw(st.text(alphabet="ACGTN", min_size=n, max_size=n))
        for n in read_lens
    )
    quals = tuple(
        np.array(
            draw(st.lists(st.integers(0, 93), min_size=n, max_size=n)),
            dtype=np.uint8,
        )
        for n in read_lens
    )
    return RealignmentSite(chrom="c", start=draw(st.integers(0, 10_000)),
                           consensuses=cons, reads=reads, quals=quals)


def degenerate_sites():
    """The ISSUE's named degenerate shapes, plus word-boundary lengths."""
    rng = np.random.default_rng(99)
    letters = np.array(list("ACGT"))
    long_cons = "".join(rng.choice(letters, size=70))
    boundary_reads = tuple(
        "".join(rng.choice(letters, size=n)) for n in (31, 32, 33, 64, 65)
    )
    return [
        # n == m: exactly one offset per pair
        RealignmentSite("c", 0, ("ACGTACGT", "TGCATGCA"),
                        ("ACGTACGT",), ([7] * 8,)),
        # single read
        RealignmentSite("c", 5, ("ACGTACGTAAGG", "ACGGACGTAAGG"),
                        ("GTAC",), ([3, 0, 9, 1],)),
        # empty alternates: only the reference consensus
        RealignmentSite("c", 0, ("ACGTACGTACGT",),
                        ("CGTA", "TACG"), ([5] * 4, [6] * 4)),
        # reads straddling the 32-base packed-word boundary
        RealignmentSite(
            "c", 0, (long_cons, long_cons[1:] + "A"), boundary_reads,
            tuple([int(q) for q in rng.integers(0, 94, size=len(r))]
                  for r in boundary_reads),
        ),
    ]


def packer_edge_sites():
    """Shapes the property draws do not reach, for the C packer."""
    rng = np.random.default_rng(29)

    def bases(n):
        return "".join(rng.choice(list("ACGT"), size=n))

    def quals(n):
        return rng.integers(0, 256, size=n, dtype=np.uint8)

    cons = bases(120)
    long_cons = bases(340)
    word = bases(64)
    top = np.array([0, 255, 94, 0, 200, 93, 255, 1, 128, 94], np.uint8)
    return {
        # the counting sort's bottom and top buckets (any uint8 passes);
        # random reads, so every minimum weighs mismatched qualities
        "qualities-0-and-94-255": RealignmentSite(
            "c", 0, (cons, cons[3:] + "ACG"), (bases(10), bases(40)),
            (top, np.concatenate([top, 255 - top, top[::-1], top]))),
        "one-base-read": RealignmentSite(
            "c", 0, (cons[:12], "ACGTTGCAACGT"), ("G", "T"),
            (np.array([30], np.uint8), np.array([0], np.uint8))),
        # 10 read words, past PAPER_LIMITS' 256-base reads
        "300-base-read": RealignmentSite(
            "c", 0, (long_cons, long_cons[::-1]), (long_cons[20:320],),
            (quals(300),), limits=SiteLimits(max_read_length=512)),
        # K = 1 with the read ending on a word boundary
        "64-base-consensus-and-read": RealignmentSite(
            "c", 0, (word, word[1:] + "A"), (word,), (quals(64),)),
        # qlow rows padded past three of the four lengths
        "four-read-lengths": RealignmentSite(
            "c", 0, (cons, cons[::-1]),
            (cons[:5], cons[10:50], cons[20:90], cons[15:115]),
            tuple(quals(n) for n in (5, 40, 70, 100))),
    }


def seed_stress_site(draw):
    """Sites built to break the native kernel's seeded bound were it
    inexact.

    Periodic consensuses tie many offsets (the earliest must still win),
    ``N`` appears in reads and consensuses, all-zero or constant
    qualities flatten ``qlow`` so nothing prunes, a zero-slack
    consensus leaves ``K = 1``, and read lengths straddle the 32-base
    words. Random bases come from a drawn seed so 256-base reads stay
    cheap to draw; the structure is drawn and shrinks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.sampled_from([31, 32, 33, 63, 64, 65, 256]),
                            min_size=1, max_size=3))

    def bases(length):
        if draw(st.booleans()):  # periodic: every period is a tied offset
            unit = draw(st.text(alphabet="ACGTN", min_size=1, max_size=3))
            return (unit * length)[:length]
        return "".join(rng.choice(list("ACGTN"), size=length))

    cons = tuple(bases(max(lengths) + draw(st.sampled_from([0, 1, 5, 40])))
                 for _ in range(draw(st.integers(1, 3))))
    reads = []
    for n in lengths:
        if draw(st.booleans()):  # a consensus window, one base redrawn
            source = draw(st.sampled_from(cons))
            at = draw(st.integers(0, len(source) - n))
            read = list(source[at:at + n])
            read[draw(st.integers(0, n - 1))] = draw(st.sampled_from("ACGTN"))
            reads.append("".join(read))
        else:
            reads.append(bases(n))
    level = draw(st.one_of(st.just(0), st.integers(1, 93), st.none()))
    quals = tuple(
        rng.integers(0, 94, size=n, dtype=np.uint8) if level is None
        else np.full(n, level, dtype=np.uint8)
        for n in lengths
    )
    return RealignmentSite("c", 0, cons, tuple(reads), quals)


def assert_all_kernels_agree(site):
    ref_w, ref_i = min_whd_grid_scalar(site)
    for label, (mw, mi) in {
        "vector": min_whd_grid(site),
        "fft": min_whd_grid_batched(site, prefilter=False),
        "bitpack": min_whd_grid_bitpacked(site),
        "native": min_whd_grid_native(site),
    }.items():
        np.testing.assert_array_equal(mw, ref_w, err_msg=f"{label} min_whd")
        np.testing.assert_array_equal(mi, ref_i, err_msg=f"{label} min_idx")


class TestCrossKernelExactness:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_grids_cell_identical(self, data):
        assert_all_kernels_agree(ragged_site(data.draw))

    @given(st.data(), st.sampled_from(["similarity", "absdiff"]))
    @settings(max_examples=40, deadline=None)
    def test_site_results_same_outputs(self, data, scoring):
        site = ragged_site(data.draw)
        want = dispatch_realign(site, kernel="vector", scoring=scoring)
        for kernel in KERNELS:
            got = dispatch_realign(site, kernel=kernel, scoring=scoring)
            assert got.same_outputs(want), kernel

    @pytest.mark.parametrize("index", range(len(degenerate_sites())))
    def test_degenerate_shapes(self, index):
        site = degenerate_sites()[index]
        assert_all_kernels_agree(site)
        want = dispatch_realign(site, kernel="vector")
        for kernel in KERNELS:
            assert dispatch_realign(site, kernel=kernel).same_outputs(want)

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_synthesized_sites(self, seed):
        site = synthesize_site(np.random.default_rng(seed), BENCH_PROFILE,
                               complexity=0.5)
        want = dispatch_realign(site, kernel="vector")
        for kernel in ("vector", "fft", "bitpack", "native", "auto"):
            assert dispatch_realign(site, kernel=kernel).same_outputs(want)


class TestDispatchSemantics:
    def site(self):
        return synthesize_site(np.random.default_rng(0), BENCH_PROFILE)

    def test_every_kernel_is_one_grid_function(self):
        # A kernel is one row of the dispatch table, and each engine
        # kernel module defines exactly one grid function.
        import importlib

        from repro.engine.autotune import GRIDS

        assert tuple(GRIDS) == KERNELS
        for module, grid in (("batch", "min_whd_grid_batched"),
                             ("bitpack", "min_whd_grid_bitpacked"),
                             ("native", "min_whd_grid_native")):
            names = vars(importlib.import_module(f"repro.engine.{module}"))
            assert [name for name in names
                    if name.startswith("min_whd_grid")] == [grid]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            dispatch_realign(self.site(), kernel="simd")

    def test_auto_is_native(self):
        sink = Sink()
        dispatch_realign(self.site(), kernel="auto", telemetry=sink)
        assert chosen(sink.counters) == {"kernel.chosen.native": 1}

    def test_auto_is_native_without_a_backend(self, monkeypatch, caplog,
                                              fresh_backend):
        # No compiled backend: auto is still native, and native itself
        # degrades -- one counter per site, one warning per process.
        monkeypatch.setenv("REPRO_NATIVE", "off")
        fresh_backend.reset_backend()
        sink = Sink()
        sites = [self.site(), self.site()]
        with caplog.at_level("WARNING", logger="repro.engine.native"):
            got = [dispatch_realign(site, kernel="auto", telemetry=sink)
                   for site in sites]
        assert chosen(sink.counters) == {"kernel.chosen.native": 2}
        assert sink.counters.get("kernel.native.unavailable") == 2
        assert len([r for r in caplog.records
                    if "native kernel tier unavailable" in r.message]) == 1
        for result, site in zip(got, sites):
            assert result.same_outputs(dispatch_realign(site, kernel="scalar"))

    def test_no_realign_import_and_no_kernel_loads_scipy(self):
        """numpy is the only runtime dependency: the ``fft`` kernel runs
        on ``numpy.fft`` whether or not scipy happens to be installed."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.engine, repro.core.system\n"
            "import repro.realign.realigner, repro.genomics.samlite\n"
            "from repro.engine.autotune import dispatch_realign\n"
            "from repro.experiments.figure4 import build_site\n"
            "dispatch_realign(build_site(), kernel='fft')\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded[:5]\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

    def test_fixed_kernel_emits_choice_but_no_prediction(self):
        sink = Sink()
        dispatch_realign(self.site(), kernel="bitpack", telemetry=sink)
        assert chosen(sink.counters) == {"kernel.chosen.bitpack": 1}

    @pytest.mark.parametrize("value", ["of", "ccc", "true", "cc", "numba"])
    def test_unknown_native_mode_rejected(self, monkeypatch, fresh_backend,
                                          value):
        # A typo must not silently mean `auto`: REPRO_NATIVE=of would
        # run the compiled tier while CI believed it disabled.
        from repro.engine import EngineConfig

        monkeypatch.setenv("REPRO_NATIVE", value)
        fresh_backend.reset_backend()
        with pytest.raises(ValueError, match="REPRO_NATIVE.*auto.off.none"):
            fresh_backend.get_backend()
        with pytest.raises(ValueError, match="REPRO_NATIVE"):
            EngineConfig()

    def test_unknown_native_mode_exits_2_from_the_cli(self, monkeypatch,
                                                      capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_NATIVE", "of")
        with pytest.raises(SystemExit) as exit_info:
            main(["figure4"])
        assert exit_info.value.code == 2
        assert "REPRO_NATIVE='of'" in capsys.readouterr().err

    @pytest.mark.parametrize("value, mode", [
        ("", "auto"), (" OFF ", "off"), ("0", "0"),
    ])
    def test_known_native_modes_accepted(self, monkeypatch, value, mode):
        from repro.engine.native import native_mode

        monkeypatch.setenv("REPRO_NATIVE", value)
        assert native_mode() == mode


class TestEngineKernelWiring:
    def sites(self):
        rng = np.random.default_rng(3)
        return [synthesize_site(rng, BENCH_PROFILE, complexity=0.4)
                for _ in range(6)]

    @pytest.mark.parametrize(
        "kernel", ["auto", "vector", "fft", "bitpack", "native"]
    )
    def test_engine_results_identical_across_kernels(self, kernel):
        from repro.engine import Engine, EngineConfig

        sites = self.sites()
        want = [dispatch_realign(site, kernel="vector") for site in sites]
        got = Engine(EngineConfig(kernel=kernel, batch=2)).run_sites(sites)
        assert all(g.same_outputs(w) for g, w in zip(got, want))

    def test_streaming_engine_honours_kernel(self):
        from repro.engine import Engine, EngineConfig
        from repro.telemetry import Telemetry

        sites = self.sites()
        session = Telemetry(label="stream-kernel")
        with Engine(EngineConfig(kernel="bitpack", batch=2,
                                 workers=2)) as engine:
            got = engine.run_sites(sites, telemetry=session)
        assert (session.counters.flat().get("kernel.chosen.bitpack")
                == len(sites))
        want = [dispatch_realign(site, kernel="vector") for site in sites]
        assert all(g.same_outputs(w) for g, w in zip(got, want))


class TestAutoAcrossWorkerPlanes:
    """``auto`` resolves inside the unit thread that runs the site, so
    every pooled plane must fold ``kernel.chosen.native`` -- and nothing
    else -- back into the caller's telemetry."""

    def sites(self):
        rng = np.random.default_rng(5)
        return [synthesize_site(rng, BENCH_PROFILE, complexity=0.4)
                for _ in range(6)]

    def check(self, engine):
        from repro.telemetry import Telemetry

        sites = self.sites()
        session = Telemetry(label="auto-planes")
        with engine:
            got = engine.run_sites(sites, telemetry=session)
        assert (chosen(session.counters.flat())
                == {"kernel.chosen.native": len(sites)})
        want = [dispatch_realign(site, kernel="vector") for site in sites]
        assert all(g.same_outputs(w) for g, w in zip(got, want))

    def test_pool(self):
        from repro.engine import Engine, EngineConfig

        self.check(Engine(EngineConfig(workers=2, batch=2)))

    def test_streaming_engine(self):
        from repro.engine import Engine, EngineConfig

        self.check(Engine(EngineConfig(workers=2, batch=1)))

    def test_shard_plane(self):
        from repro.engine import EngineConfig
        from repro.shard import ShardPlane

        self.check(ShardPlane(EngineConfig(batch=2), shards=2))


class TestPopcountFallback:
    """The numpy<2.0 byte-LUT popcount must preserve leading dims.

    The screening pass calls ``_popcount_rows`` on the grouped
    ``(C, K, G, Wr)`` tensor. An earlier
    fallback reshaped to ``(shape[0], -1)``, flattening the 4-D tensor
    to ``(C,)`` and crashing the default (auto-dispatched) realign path
    on numpy 1.x, so these run the LUT path explicitly on numpy>=2.0
    hosts too.
    """

    @pytest.mark.parametrize(
        "shape", [(2,), (5, 2), (4, 1), (3, 4, 6, 2), (2, 1, 3, 1)]
    )
    def test_lut_matches_bit_counting_on_any_rank(self, shape):
        from repro.engine import bitpack

        rng = np.random.default_rng(42)
        words = rng.integers(0, np.iinfo(np.uint64).max, size=shape,
                             dtype=np.uint64, endpoint=True)
        got = bitpack._popcount_rows_lut(words)
        want = np.array(
            [sum(bin(int(w)).count("1") for w in row)
             for row in words.reshape(-1, shape[-1])],
            dtype=np.int64,
        ).reshape(shape[:-1])
        assert np.shape(got) == shape[:-1]
        np.testing.assert_array_equal(got, want)

    def test_lut_handles_noncontiguous_input(self):
        from repro.engine import bitpack

        words = np.random.default_rng(7).integers(
            0, 1 << 63, size=(6, 4), dtype=np.uint64
        )
        view = words.T  # non-contiguous: exercises ascontiguousarray
        np.testing.assert_array_equal(
            bitpack._popcount_rows_lut(view),
            bitpack._popcount_rows_lut(np.ascontiguousarray(view)),
        )

    def test_full_kernel_exact_with_fallback_forced(self, monkeypatch):
        from repro.engine import bitpack
        from repro.experiments.figure4 import build_site

        monkeypatch.setattr(bitpack, "_popcount_rows",
                            bitpack._popcount_rows_lut)
        assert_all_kernels_agree(build_site())
        for site in degenerate_sites():
            assert_all_kernels_agree(site)
        # Grouped uniform-length sites drive the 4-D (C, K, G, Wr)
        # screening tensor -- the shape the old fallback flattened.
        uniform = SiteProfile(
            name="uniform", mean_consensuses=4.0, mean_reads=48.0,
            read_length_range=(40, 40), window_slack_mean=4.0,
            read_tail_sigma=0.0,
        )
        for seed in (5, 6):
            site = synthesize_site(np.random.default_rng(seed), uniform)
            want = dispatch_realign(site, kernel="vector")
            got = dispatch_realign(site, kernel="bitpack")
            assert got.same_outputs(want)


class TestNativeKernel:
    """The compiled tier's backend machinery and fallback semantics.

    Parity of native *output* with the other kernels is covered above
    (it holds with or without a backend); this class tests the pieces
    unique to the tier -- forced backend paths, warmup, and the
    degrade-to-bitpack contract.
    """

    needs_backend = pytest.mark.skipif(
        not native_available(),
        reason="no compiled native backend (no C compiler) here",
    )

    @needs_backend
    def test_backend_name_is_reported(self):
        # The probe resolves to the one compiled backend, the C library.
        from repro.engine import native

        assert isinstance(native.get_backend(), native._CcBackend)

    @needs_backend
    def test_warmup_is_idempotent_and_true(self):
        from repro.engine.native import warmup_native

        assert warmup_native() is True
        assert warmup_native() is True

    @needs_backend
    @pytest.mark.parametrize("force_swar", [True])
    def test_both_compiled_paths_match_scalar(self, force_swar):
        # The SWAR pipeline, called directly on the probed backend, is
        # the one compiled path; the compiled scalar-fallback grid it
        # was once paired with (force_swar=False) is gone.
        assert force_swar
        for site in degenerate_sites():
            ref_w, ref_i = min_whd_grid_scalar(site)
            sink = Sink()
            mw, mi = min_whd_grid_native(site, telemetry=sink)
            np.testing.assert_array_equal(mw, ref_w)
            np.testing.assert_array_equal(mi, ref_i)
            assert sink.counters["native.offsets_exact"] >= 0

    @needs_backend
    @given(st.data())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_seeded_bound_matches_scalar(self, data):
        # The compiled site kernel against the scalar loops on sites
        # built to stress the seed; the example budget is the active
        # profile's (CI runs this with --hypothesis-profile=ci).
        site = seed_stress_site(data.draw)
        ref_w, ref_i = min_whd_grid_scalar(site)
        mw, mi = min_whd_grid_native(site)
        np.testing.assert_array_equal(mw, ref_w)
        np.testing.assert_array_equal(mi, ref_i)

    @needs_backend
    @pytest.mark.parametrize("shape", sorted(packer_edge_sites()))
    def test_packer_edge_shapes_match_scalar(self, shape):
        site = packer_edge_sites()[shape]
        ref_w, ref_i = min_whd_grid_scalar(site)
        mw, mi = min_whd_grid_native(site)
        np.testing.assert_array_equal(mw, ref_w)
        np.testing.assert_array_equal(mi, ref_i)

    def test_allocation_failure_is_a_memory_error(self, monkeypatch):
        # The C entry returns -1 before it writes a grid cell when its
        # scratch cannot be allocated; that must not read as a result.
        from types import SimpleNamespace

        from repro.engine import native

        backend = SimpleNamespace(site=lambda *args: -1)
        monkeypatch.setattr(native, "get_backend", lambda: backend)
        with pytest.raises(MemoryError):
            native.min_whd_grid_native(degenerate_sites()[0])

    def test_c_source_compiles_warning_free(self, tmp_path):
        # An implicit declaration or a type slip in the C source builds
        # with a guessed prototype on one compiler and fails on the next
        # (which silently degrades the tier to bitpack): make it red here.
        import subprocess

        from repro.engine import native

        cc = native._find_cc()
        if cc is None:
            pytest.skip("no C compiler here")
        src = tmp_path / "whd.c"
        src.write_text(native._C_SOURCE)
        proc = subprocess.run(
            [cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
             str(src)], capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_failed_build_is_named_in_the_warning(self, monkeypatch,
                                                  fresh_backend, tmp_path,
                                                  caplog):
        # A compiler that fails is not "no C compiler": the one degrade
        # warning must say the build failed.
        import shutil

        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(fresh_backend, "_find_cc",
                            lambda: shutil.which("false"))
        fresh_backend.reset_backend()
        site = synthesize_site(np.random.default_rng(12), BENCH_PROFILE)
        with caplog.at_level("WARNING", logger="repro.engine.native"):
            got = dispatch_realign(site, kernel="native")
        warnings = [r.message for r in caplog.records
                    if "native kernel tier unavailable" in r.message]
        assert len(warnings) == 1 and "build failed" in warnings[0]
        assert got.same_outputs(dispatch_realign(site, kernel="vector"))

    @needs_backend
    def test_seeded_bound_past_the_paper_consensus_limit(self):
        # SiteLimits is configurable: pass 0's scratch is sized by the
        # site, so a 3 000-base consensus with true offsets past 2 048
        # must still come out exact.
        rng = np.random.default_rng(4096)
        cons = "".join(rng.choice(list("ACGT"), size=3000))
        reads = (cons[2900:2964], cons[2500:2533], "ACGT" * 8)
        site = RealignmentSite(
            "c", 0, (cons, cons[1:] + "A"), reads,
            tuple(rng.integers(0, 41, size=len(r), dtype=np.uint8)
                  for r in reads),
            limits=SiteLimits(max_consensus_length=4096),
        )
        ref_w, ref_i = min_whd_grid_scalar(site)
        assert (ref_i > 2048).any()
        mw, mi = min_whd_grid_native(site)
        np.testing.assert_array_equal(mw, ref_w)
        np.testing.assert_array_equal(mi, ref_i)

    @needs_backend
    def test_whole_read_counts_past_int16(self):
        # Pass 1 keeps whole-read mismatch counts, and an offset inside
        # the live range keeps counting however far past lim it is. On a
        # 40 000-base read under raised SiteLimits, offsets 0 and 2 tie
        # with 40 spread mismatches and keep offset 1 (~40 000
        # mismatches, all words) in range: a count that wrapped (an
        # int16 accumulator) would send it to an exact evaluation.
        rng = np.random.default_rng(32768)
        read = list("AC" * 20_000)
        for t in range(500, len(read), 1000):
            read[t] = "G"
        read = "".join(read)
        site = RealignmentSite(
            "c", 0, ("AC" * 20_001,), (read,),
            (rng.integers(2, 42, size=len(read), dtype=np.uint8),),
            limits=SiteLimits(max_consensus_length=40_002,
                              max_read_length=40_000),
        )
        ref_w, ref_i = min_whd_grid_scalar(site)
        assert ref_i.tolist() == [[0]]
        sink = Sink()
        mw, mi = min_whd_grid_native(site, telemetry=sink)
        np.testing.assert_array_equal(mw, ref_w)
        np.testing.assert_array_equal(mi, ref_i)
        assert sink.counters["native.offsets_exact"] == 2  # the seed (offset 0) and the tie at offset 2

    @needs_backend
    def test_seeded_bound_prunes_real_profile_sites(self):
        # The paper's Section IV pruning on the benchmark's own sites:
        # at most 1 % of offsets reach an exact evaluation.
        rng = np.random.default_rng(2019)
        sink = Sink()
        for i in range(16):
            site = synthesize_site(rng, REAL_PROFILE, start=i * 5000)
            dispatch_realign(site, kernel="native", telemetry=sink)
        exact = sink.counters["native.offsets_exact"]
        assert exact <= 0.01 * sink.counters["native.offsets_screened"]
        # The count itself is pinned: the offsets the word-major pass
        # sends to an exact evaluation are exactly those the
        # offset-at-a-time scan sent (measured at commit 9a07f7e).
        assert exact == 13600

    @needs_backend
    def test_offsets_screened_is_the_sum_over_pairs(self):
        ragged = degenerate_sites()[3]
        site = RealignmentSite(
            "c", 0, ragged.consensuses + (ragged.consensuses[0][:66],),
            ragged.reads + ("ACGTA",), ragged.quals + ([9] * 5,),
        )
        sink = Sink()
        dispatch_realign(site, kernel="native", telemetry=sink)
        assert sink.counters["native.offsets_screened"] == sum(
            site.offsets(i, j) for i in range(site.num_consensuses)
            for j in range(site.num_reads)
        )

    def test_library_path_follows_the_cpu(self):
        # -march=native builds for the CPU it runs on: a cache shared
        # between machines must key a different library per CPU.
        from repro.engine.native import _library_path

        old = _library_path("cc", "x86_64flags\t\t: fpu sse2\n")
        new = _library_path("cc", "x86_64flags\t\t: fpu sse2 avx512f\n")
        assert old != new and old.parent == new.parent

    @needs_backend
    def test_screening_counters_are_consistent(self):
        sink = Sink()
        site = synthesize_site(np.random.default_rng(11), BENCH_PROFILE)
        dispatch_realign(site, kernel="native", telemetry=sink)
        assert sink.counters.get("kernel.sites") == 1
        screened = sink.counters.get("native.offsets_screened")
        exact = sink.counters.get("native.offsets_exact")
        assert screened == sink.counters.get("kernel.offsets_evaluated")
        assert 0 < exact <= screened
        assert "kernel.native.unavailable" not in sink.counters

    def test_off_switch_degrades_to_bitpack(self, monkeypatch,
                                            fresh_backend):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        fresh_backend.reset_backend()
        assert not fresh_backend.native_available()
        sink = Sink()
        site = synthesize_site(np.random.default_rng(12), BENCH_PROFILE)
        got = dispatch_realign(site, kernel="native", telemetry=sink)
        assert sink.counters.get("kernel.native.unavailable") == 1
        # Bitpack ran underneath: its screening counters are present
        # and the output is still exact.
        assert "bitpack.offsets_screened" in sink.counters
        assert got.same_outputs(dispatch_realign(site, kernel="vector"))

    def test_off_switch_keeps_dispatch_working(self, monkeypatch,
                                               fresh_backend):
        # --kernel native (and auto routing to native) must stay a
        # working request, not an error, when the tier is disabled.
        monkeypatch.setenv("REPRO_NATIVE", "off")
        fresh_backend.reset_backend()
        site = synthesize_site(np.random.default_rng(13), BENCH_PROFILE)
        got = dispatch_realign(site, kernel="native")
        assert got.same_outputs(dispatch_realign(site, kernel="vector"))

    def test_warmup_reports_false_when_disabled(self, monkeypatch,
                                                fresh_backend):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        fresh_backend.reset_backend()
        assert fresh_backend.warmup_native() is False

    def test_threaded_engine_probes_the_backend_once(self, monkeypatch,
                                                     fresh_backend):
        # The engine warms the kernel before it starts its unit threads,
        # so two units' first calls cannot race the unlocked probe into
        # a second build of the library.
        from repro.engine import Engine, EngineConfig

        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        fresh_backend.reset_backend()
        calls = []
        real = fresh_backend._load_cc_backend

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(fresh_backend, "_load_cc_backend", counting)
        rng = np.random.default_rng(17)
        sites = [synthesize_site(rng, BENCH_PROFILE, complexity=0.4)
                 for _ in range(8)]
        with Engine(EngineConfig(workers=2, batch=2)) as engine:
            engine.run_sites(sites)
        assert len(calls) == 1

    @needs_backend
    def test_grid_entry_point_matches_reference(self):
        for site in degenerate_sites():
            ref_w, ref_i = min_whd_grid_scalar(site)
            mw, mi = min_whd_grid_native(site)
            np.testing.assert_array_equal(mw, ref_w)
            np.testing.assert_array_equal(mi, ref_i)
