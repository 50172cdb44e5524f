"""Unit and integration tests for the batched parallel engine.

The engine's contract is byte-identical output to the scalar kernel for
every configuration (prefilter on/off, any worker count).
These tests pin that contract at each layer: tensor packing, the
prefilter's pruning bookkeeping, shard merge determinism,
the realigner integrations, and the CLI flags.
"""

import json
import re

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig, dispatch_realign
from repro.engine.batch import (
    PackedSite,
    min_whd_grid_batched,
    _count_candidates,
)
from repro.realign.whd import WHD_SENTINEL, min_whd_grid
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


class _Sink:
    """Counter-only telemetry stand-in."""

    def __init__(self):
        self.counters = {}

    def count(self, name, delta=1):
        self.counters[name] = self.counters.get(name, 0) + int(delta)


def _sites(n=6, seed=11):
    rng = np.random.default_rng(seed)
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=0.3 + 0.25 * (i % 4))
        for i in range(n)
    ]


class TestPackedSite:
    def test_shapes_and_padding(self):
        site = _sites(1)[0]
        packed = PackedSite.from_site(site)
        assert packed.cons.shape == (site.num_consensuses,
                                     max(len(c) for c in site.consensuses))
        assert packed.reads.shape == packed.quals.shape
        assert packed.reads.shape[0] == site.num_reads
        assert packed.K == packed.cons.shape[1] - packed.lens.min() + 1
        # Padding is the 0 byte, which encodes no real base.
        for j, read in enumerate(site.reads):
            assert bytes(packed.reads[j, :len(read)]).decode() == read
            assert not packed.reads[j, len(read):].any()

    def test_quality_extremes_ignore_padding(self):
        site = _sites(1, seed=5)[0]
        packed = PackedSite.from_site(site)
        for j, quals in enumerate(site.quals):
            assert packed.minq[j] == int(quals.min())
            assert packed.maxq[j] == int(quals.max())

    def test_valid_cells_matches_site_offsets(self):
        site = _sites(1, seed=9)[0]
        packed = PackedSite.from_site(site)
        expected = sum(
            site.offsets(i, j)
            for i in range(site.num_consensuses)
            for j in range(site.num_reads)
        )
        assert packed.valid_cells() == expected

    def test_read_subset_packing(self):
        site = _sites(1, seed=3)[0]
        subset = [0, site.num_reads - 1]
        packed = PackedSite.from_site(site, read_indices=subset)
        assert packed.reads.shape[0] == len(subset)
        assert bytes(
            packed.reads[1, :len(site.reads[subset[1]])]
        ).decode() == site.reads[subset[1]]


class TestBatchedGrid:
    def test_unfiltered_grids_equal_scalar_kernel(self):
        for site in _sites(4):
            mw, mi = min_whd_grid_batched(site, prefilter=False)
            ref_w, ref_i = min_whd_grid(site)
            np.testing.assert_array_equal(mw, ref_w)
            np.testing.assert_array_equal(mi, ref_i)

    def test_prefiltered_outputs_match_scalar(self):
        for scoring in ("similarity", "absdiff"):
            for site in _sites(4, seed=23):
                got = dispatch_realign(site, kernel="fft", scoring=scoring)
                want = dispatch_realign(site, kernel="vector",
                                        scoring=scoring)
                assert got.same_outputs(want)

    def test_pair_lower_bounds_are_sound(self):
        for site in _sites(3, seed=31):
            lb = _count_candidates(PackedSite.from_site(site))[3]
            true_w, _ = min_whd_grid(site)
            assert (lb <= true_w).all()

    def test_stats_accounting(self):
        sink = _Sink()
        site = _sites(1)[0]
        dispatch_realign(site, kernel="fft", telemetry=sink)
        valid = sink.counters["kernel.offsets_evaluated"]
        evaluated = sink.counters["kernel.cells_evaluated"]
        assert sink.counters["kernel.sites"] == 1
        assert valid == PackedSite.from_site(site).valid_cells() > 0
        assert evaluated <= valid
        assert sink.counters["kernel.cells_pruned"] == valid - evaluated

    def test_eliminated_rows_stay_sentinel(self):
        pruned_rows = 0
        for site in _sites(6, seed=41):
            sink = _Sink()
            mw, _ = min_whd_grid_batched(site, telemetry=sink)
            sentinel_rows = int((mw == WHD_SENTINEL).all(axis=1).sum())
            assert sentinel_rows == sink.counters["engine.rows_eliminated"]
            pruned_rows += sentinel_rows
        assert pruned_rows > 0  # the filter actually fires on this pool


class TestEngineDeterminism:
    def test_workers_do_not_change_results(self):
        sites = _sites(10, seed=77)
        serial = Engine(EngineConfig(workers=1, batch=3)).run_sites(sites)
        with Engine(EngineConfig(workers=3, batch=3)) as engine:
            parallel = engine.run_sites(sites)
        assert len(serial) == len(parallel) == len(sites)
        for a, b in zip(serial, parallel):
            assert a.same_outputs(b)
            np.testing.assert_array_equal(a.min_whd, b.min_whd)

    @pytest.mark.parametrize("kernel", ["native", "fft"])
    def test_thread_bank_under_forced_switching_matches_serial(self,
                                                               kernel):
        # More unit threads than cores, one site per chunk, and a
        # switch interval short enough to interleave every bytecode:
        # a lost update in any state the units share would show as a
        # wrong result or a wrong counter total.
        import sys

        from repro.telemetry import Telemetry

        sites = _sites(12, seed=83)
        serial = Engine(EngineConfig(workers=1, batch=1,
                                     kernel=kernel)).run_sites(
            sites)
        telemetry = Telemetry()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Engine(EngineConfig(workers=4, batch=1,
                                     kernel=kernel)) as engine:
                threaded = engine.run_sites(sites, telemetry=telemetry)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded, strict=True):
            assert a.same_outputs(b)
            np.testing.assert_array_equal(a.min_whd, b.min_whd)
        flat = telemetry.counters.flat()
        assert flat["kernel.sites"] == flat["engine.shard_sites"] == 12

    def test_repeat_runs_are_stable(self):
        sites = _sites(7, seed=13)
        with Engine(EngineConfig(workers=2, batch=2)) as engine:
            first = engine.run_sites(sites)
            second = engine.run_sites(sites)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.min_whd, b.min_whd)
            np.testing.assert_array_equal(a.new_pos, b.new_pos)

    def test_shard_stats_cover_every_site(self):
        sites = _sites(9, seed=19)
        engine = Engine(EngineConfig(workers=1, batch=4))
        engine.run_sites(sites)
        assert sum(s.sites for s in engine.shard_stats) == len(sites)
        assert [s.shard for s in engine.shard_stats] == [0, 1, 2]
        assert all(s.end >= s.start for s in engine.shard_stats)

    def test_counters_and_shard_spans_reach_telemetry(self):
        from repro.telemetry import CAT_ENGINE, Telemetry

        sites = _sites(5, seed=29)
        telemetry = Telemetry()
        # kernel pinned: the prune counters asserted below are emitted
        # by the FFT kernel's prefilter.
        Engine(EngineConfig(workers=1, batch=2, kernel="fft")).run_sites(
            sites, telemetry=telemetry
        )
        flat = telemetry.counters.flat()
        assert flat["kernel.sites"] == len(sites)
        assert flat["engine.shards"] == 3
        assert flat["kernel.cells_pruned"] > 0
        assert sum(
            1 for span in telemetry.spans if span.category == CAT_ENGINE
        ) == 3

    def test_empty_site_list(self):
        engine = Engine(EngineConfig())
        assert engine.run_sites([]) == []
        assert engine.shard_stats == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=0)
        with pytest.raises(ValueError):
            EngineConfig(batch=0)
        with pytest.raises(ValueError):
            EngineConfig(scoring="magic")


class TestPooledChunks:
    def test_chunk_error_reaches_the_caller_after_one_call(self,
                                                           monkeypatch):
        # A chunk computes a pure function of its sites, so the pool
        # does not retry one that raised: its exception leaves
        # run_sites with its own type and message, and the pool serves
        # the next run.
        from repro.engine import parallel

        sites = _sites(4, seed=71)
        poison = sites[3]
        real = parallel._realign_chunk
        poisoned_calls = []

        def failing(chunk_id, part, config, failed=None):
            if any(site is poison for site in part):
                poisoned_calls.append(chunk_id)
                raise KeyError("poison site")
            return real(chunk_id, part, config, failed)

        monkeypatch.setattr(parallel, "_realign_chunk", failing)
        with Engine(EngineConfig(workers=2, batch=2)) as engine:
            with pytest.raises(KeyError, match="poison site"):
                engine.run_sites(sites)
            assert poisoned_calls == [1]
            assert engine.recovery_counters == {}
            clean = sites[:3]
            serial = Engine(EngineConfig(workers=1)).run_sites(clean)
            for a, b in zip(serial, engine.run_sites(clean), strict=True):
                assert a.same_outputs(b)

    def test_out_of_order_completion_merges_in_order(self, monkeypatch):
        # Lower chunk ids finish last; the results still come back in
        # chunk order.
        import time

        from repro.engine import parallel

        sites = _sites(8, seed=89)
        real = parallel._realign_chunk

        def slow_head(chunk_id, part, config, failed=None):
            time.sleep(0.02 * (len(sites) - chunk_id))
            return real(chunk_id, part, config, failed)

        serial = Engine(EngineConfig(workers=1, batch=1)).run_sites(sites)
        monkeypatch.setattr(parallel, "_realign_chunk", slow_head)
        with Engine(EngineConfig(workers=4, batch=1)) as engine:
            pooled = engine.run_sites(sites)
        for a, b in zip(serial, pooled, strict=True):
            assert a.same_outputs(b)
            np.testing.assert_array_equal(a.min_whd, b.min_whd)

    def test_failure_raises_before_an_earlier_chunk_completes(self,
                                                              monkeypatch):
        # Chunk 0 blocks until released and chunk 1 raises: the failure
        # leaves run_sites while chunk 0 still waits (Executor.map
        # would wait for chunk 0 first), and no later chunk starts.
        import threading

        from repro.engine import parallel

        sites = _sites(6, seed=71)
        real = parallel._realign_chunk
        release = threading.Event()
        started = []
        head_done = []

        def gated(chunk_id, part, config, failed=None):
            started.append(chunk_id)
            if chunk_id == 0:
                release.wait(timeout=60)
                head_done.append(release.is_set())
            elif chunk_id == 1:
                raise KeyError("chunk 1")
            return real(chunk_id, part, config, failed)

        monkeypatch.setattr(parallel, "_realign_chunk", gated)
        with Engine(EngineConfig(workers=2, batch=1)) as engine:
            try:
                with pytest.raises(KeyError, match="chunk 1"):
                    engine.run_sites(sites)
                assert head_done == []
            finally:
                release.set()
        assert head_done == [True]
        assert sorted(started) == [0, 1]
        assert engine.shard_stats == []

    def test_a_failed_run_stops_its_running_chunks(self, monkeypatch):
        # Two three-site chunks. Chunk 0's first site blocks until the
        # run has raised; chunk 1's first site raises once chunk 0 is
        # inside its first site. Chunk 0 then stops before its second
        # site: after a failure no unit starts another site of the run.
        import threading

        from repro.engine import parallel

        sites = _sites(6, seed=72)
        real = parallel.dispatch_realign
        entered, release = threading.Event(), threading.Event()
        dispatched = []

        def gated(site, **kwargs):
            dispatched.append(next(
                i for i, known in enumerate(sites) if known is site))
            if site is sites[0]:
                entered.set()
                release.wait(timeout=60)
            elif site is sites[3]:
                entered.wait(timeout=60)
                raise KeyError("chunk 1")
            return real(site, **kwargs)

        monkeypatch.setattr(parallel, "dispatch_realign", gated)
        engine = Engine(EngineConfig(workers=2, batch=3))
        try:
            with pytest.raises(KeyError, match="chunk 1"):
                engine.run_sites(sites)
        finally:
            release.set()
            engine.close()  # joins the units: chunk 0 has returned
        assert sorted(dispatched) == [0, 3]
        assert engine.shard_stats == []


class TestRealignerIntegration:
    @pytest.fixture(scope="class")
    def sample(self):
        from repro.genomics.simulate import SimulationProfile, simulate_sample

        return simulate_sample(
            {"chr22": 12_000},
            profile=SimulationProfile(coverage=18.0, indel_rate=1.5e-3),
            seed=7,
        )

    @staticmethod
    def _sam(reads):
        return [(r.name, r.pos, str(r.cigar), r.seq) for r in reads]

    def test_engine_realigner_matches_serial(self, sample):
        from repro.realign.realigner import IndelRealigner

        base, base_report = IndelRealigner(
            sample.reference, engine=EngineConfig(workers=1)
        ).realign(sample.reads)
        for config in (
            EngineConfig(),
            EngineConfig(workers=2, batch=3),
        ):
            got, report = IndelRealigner(
                sample.reference, engine=config
            ).realign(sample.reads)
            assert self._sam(got) == self._sam(base)
            assert report.reads_realigned == base_report.reads_realigned
            assert report.sites_built == base_report.sites_built

    def test_engine_scoring_follows_engine_config(self, sample):
        from repro.realign.realigner import IndelRealigner

        base, _ = IndelRealigner(
            sample.reference,
            engine=EngineConfig(workers=1, scoring="absdiff"),
        ).realign(sample.reads)
        got, _ = IndelRealigner(
            sample.reference, engine=EngineConfig(scoring="absdiff"),
        ).realign(sample.reads)
        assert self._sam(got) == self._sam(base)
        realigner = IndelRealigner(sample.reference,
                                   engine=EngineConfig(scoring="absdiff"))
        assert realigner._engine_instance().config.scoring == "absdiff"

    def test_engine_rejects_bad_type(self, sample):
        from repro.realign.realigner import IndelRealigner

        realigner = IndelRealigner(sample.reference, engine="turbo")
        with pytest.raises(TypeError):
            realigner.realign(sample.reads)


class TestEngineCli:
    @pytest.fixture(scope="class")
    def sample_dir(self, tmp_path_factory):
        from repro.__main__ import main as cli_main

        out = tmp_path_factory.mktemp("engine-cli") / "sample"
        assert cli_main([
            "simulate", "--out", str(out), "--length", "9000",
            "--coverage", "14", "--indel-rate", "0.0015", "--seed", "7",
        ]) == 0
        return out

    def _realign(self, sample_dir, out_name, *extra):
        from repro.__main__ import main as cli_main

        out = sample_dir / out_name
        assert cli_main([
            "realign", "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"),
            "--out", str(out), *extra,
        ]) == 0
        return out.read_bytes()

    def test_worker_and_prefilter_flags_keep_sam_identical(self, sample_dir):
        serial = self._realign(sample_dir, "serial.sam", "--workers", "1")
        assert self._realign(
            sample_dir, "workers.sam", "--workers", "2", "--batch", "3"
        ) == serial

    def test_accelerated_writes_the_flagless_sam(self, sample_dir, capsys):
        flagless = self._realign(sample_dir, "flagless.sam")
        assert flagless != (sample_dir / "aligned.sam").read_bytes()
        capsys.readouterr()
        assert self._realign(sample_dir, "accelerated.sam",
                             "--accelerated") == flagless
        out = capsys.readouterr().out
        assert re.search(r"^accelerated run: \d+\.\d\d modelled ms, "
                         r"\d+% of comparisons pruned$", out, re.M), out
        assert "engine:" not in out

    def test_bad_engine_flags_rejected(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main([
            "realign", "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"),
            "--out", str(sample_dir / "bad.sam"), "--workers", "0",
        ]) == 2
        assert "--workers and --batch" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--kernel", "fft"),
                                       ("--site-cache-mb", "8"),
                                       ("--workers", "4"),
                                       ("--batch", "3"),
                                       ("--workers", "4", "--batch", "3")])
    def test_accelerated_refuses_host_engine_flags(self, sample_dir, capsys,
                                                   flags):
        """The FPGA model replaces the host engine, so a flag that only
        sizes or chooses the host engine's threads, chunks, kernel or
        cache is refused, not dropped."""
        from repro.__main__ import main as cli_main

        out = sample_dir / "refused.sam"
        assert cli_main([
            "realign", "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"),
            "--out", str(out), "--accelerated", *flags,
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --accelerated")
        assert not out.exists()

    def test_trace_records_engine_session(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        trace = sample_dir / "trace.json"
        assert cli_main([
            "trace", "--out", str(trace), "--sites", "8",
            "--workers", "2", "--batch", "4",
        ]) == 0
        assert "[engine]" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        names = {event.get("name") for event in payload["traceEvents"]}
        assert any("shard" in str(name) for name in names)
