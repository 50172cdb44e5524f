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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.autotune import KERNELS, dispatch_realign
from repro.engine.batch import min_whd_grid_batched
from repro.engine.bitpack import min_whd_grid_bitpacked
from repro.engine.native import (
    min_whd_grid_native,
    native_available,
    realign_site_native,
)
from repro.realign.site import RealignmentSite
from repro.realign.whd import min_whd_grid, realign_site
from repro.workloads.generator import (
    BENCH_PROFILE,
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


def assert_all_kernels_agree(site):
    ref_w, ref_i = min_whd_grid(site, vectorized=False)
    for label, (mw, mi) in {
        "vector": min_whd_grid(site, vectorized=True),
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
        want = realign_site(site, scoring=scoring)
        for kernel in KERNELS:
            got = dispatch_realign(site, kernel=kernel, scoring=scoring)
            assert got.same_outputs(want), kernel

    @pytest.mark.parametrize("index", range(len(degenerate_sites())))
    def test_degenerate_shapes(self, index):
        site = degenerate_sites()[index]
        assert_all_kernels_agree(site)
        want = realign_site(site)
        for kernel in KERNELS:
            assert dispatch_realign(site, kernel=kernel).same_outputs(want)

    @given(st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_synthesized_sites(self, seed):
        site = synthesize_site(np.random.default_rng(seed), BENCH_PROFILE,
                               complexity=0.5)
        want = realign_site(site)
        for kernel in ("vector", "fft", "bitpack", "native", "auto"):
            assert dispatch_realign(site, kernel=kernel).same_outputs(want)


class TestDispatchSemantics:
    def site(self):
        return synthesize_site(np.random.default_rng(0), BENCH_PROFILE)

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
            assert result.same_outputs(realign_site(site, vectorized=False))

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
        want = [realign_site(site) for site in sites]
        got = Engine(EngineConfig(kernel=kernel, batch=2)).run_sites(sites)
        assert all(g.same_outputs(w) for g, w in zip(got, want))

    def test_streaming_engine_honours_kernel(self):
        from repro.engine import EngineConfig, StreamingEngine
        from repro.telemetry import Telemetry

        sites = self.sites()
        session = Telemetry(label="stream-kernel")
        engine = StreamingEngine(EngineConfig(kernel="bitpack", batch=2))
        got = engine.run_sites(sites, telemetry=session)
        assert (session.counters.flat().get("kernel.chosen.bitpack")
                == len(sites))
        want = [realign_site(site) for site in sites]
        assert all(g.same_outputs(w) for g, w in zip(got, want))


class TestAutoAcrossWorkerPlanes:
    """``auto`` resolves inside the worker that runs the site, so every
    multiprocess plane must fold ``kernel.chosen.native`` -- and nothing
    else -- back into the parent's telemetry."""

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
        want = [realign_site(site) for site in sites]
        assert all(g.same_outputs(w) for g, w in zip(got, want))

    def test_pool(self):
        from repro.engine import Engine, EngineConfig

        self.check(Engine(EngineConfig(workers=2, batch=2)))

    def test_streaming_engine(self):
        from repro.engine import EngineConfig, StreamingEngine

        self.check(StreamingEngine(EngineConfig(workers=2, batch=2)))

    def test_shard_plane(self):
        from repro.engine import EngineConfig
        from repro.shard import ShardPlane

        self.check(ShardPlane(EngineConfig(batch=2), shards=2))


class TestPopcountFallback:
    """The numpy<2.0 byte-LUT popcount must preserve leading dims.

    The screening passes call ``_popcount_rows`` on both ``(K, W)``
    pair masks and the grouped ``(C, K, G, Wr)`` tensor. An earlier
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
            want = realign_site(site)
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
        from repro.engine.native import native_backend_name

        assert native_backend_name() == "cc"

    @needs_backend
    def test_warmup_is_idempotent_and_true(self):
        from repro.engine.native import warmup_native

        assert warmup_native() is True
        assert warmup_native() is True

    @needs_backend
    @pytest.mark.parametrize("force_swar", [True, False])
    def test_both_compiled_paths_match_scalar(self, force_swar):
        # Force the SWAR pipeline and the compiled scalar-fallback grid
        # in turn; the volume heuristic that picks between them must
        # never be able to change an output.
        from repro.engine import native

        backend = native.get_backend()
        for site in degenerate_sites():
            ref_w, ref_i = min_whd_grid(site, vectorized=False)
            mw, mi, _ = native._grids_native(site, backend,
                                             force_swar=force_swar)
            np.testing.assert_array_equal(mw, ref_w)
            np.testing.assert_array_equal(mi, ref_i)

    @needs_backend
    def test_screening_counters_are_consistent(self):
        sink = Sink()
        site = synthesize_site(np.random.default_rng(11), BENCH_PROFILE)
        realign_site_native(site, telemetry=sink)
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
        got = fresh_backend.realign_site_native(site, telemetry=sink)
        assert sink.counters.get("kernel.native.unavailable") == 1
        # Bitpack ran underneath: its screening counters are present
        # and the output is still exact.
        assert "bitpack.offsets_screened" in sink.counters
        assert got.same_outputs(realign_site(site))

    def test_off_switch_keeps_dispatch_working(self, monkeypatch,
                                               fresh_backend):
        # --kernel native (and auto routing to native) must stay a
        # working request, not an error, when the tier is disabled.
        monkeypatch.setenv("REPRO_NATIVE", "off")
        fresh_backend.reset_backend()
        site = synthesize_site(np.random.default_rng(13), BENCH_PROFILE)
        got = dispatch_realign(site, kernel="native")
        assert got.same_outputs(realign_site(site))

    def test_warmup_reports_false_when_disabled(self, monkeypatch,
                                                fresh_backend):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        fresh_backend.reset_backend()
        assert fresh_backend.warmup_native() is False

    @needs_backend
    def test_grid_entry_point_matches_reference(self):
        for site in degenerate_sites():
            ref_w, ref_i = min_whd_grid(site, vectorized=False)
            mw, mi = min_whd_grid_native(site)
            np.testing.assert_array_equal(mw, ref_w)
            np.testing.assert_array_equal(mi, ref_i)
