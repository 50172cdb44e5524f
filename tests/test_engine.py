"""Unit and integration tests for the batched parallel engine.

The engine's contract is byte-identical output to the scalar kernel for
every configuration (prefilter on/off, any worker count).
These tests pin that contract at each layer: tensor packing, the
prefilter's pruning bookkeeping, shard merge determinism,
the realigner integrations, and the CLI flags.
"""

import json

import numpy as np
import pytest

from repro.engine import (
    Engine,
    EngineConfig,
    PackedSite,
    PrefilterStats,
    min_whd_grid_batched,
    pair_lower_bounds,
    realign_site_batched,
)
from repro.realign.whd import WHD_SENTINEL, min_whd_grid, realign_site
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


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
                got = realign_site_batched(site, scoring=scoring)
                want = realign_site(site, scoring=scoring)
                assert got.same_outputs(want)

    def test_pair_lower_bounds_are_sound(self):
        for site in _sites(3, seed=31):
            lb = pair_lower_bounds(site)
            true_w, _ = min_whd_grid(site)
            assert (lb <= true_w).all()

    def test_stats_accounting(self):
        stats = PrefilterStats()
        site = _sites(1)[0]
        realign_site_batched(site, stats=stats)
        assert stats.sites == 1
        assert stats.cells_valid > 0
        assert stats.cells_evaluated <= stats.cells_valid
        assert stats.cells_pruned == (stats.cells_valid
                                      - stats.cells_evaluated)
        assert 0.0 <= stats.prune_fraction <= 1.0

    def test_eliminated_rows_stay_sentinel(self):
        pruned_rows = 0
        for site in _sites(6, seed=41):
            stats = PrefilterStats()
            mw, _ = min_whd_grid_batched(site, stats=stats)
            sentinel_rows = int((mw == WHD_SENTINEL).all(axis=1).sum())
            assert sentinel_rows == stats.rows_eliminated
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

        base, base_report = IndelRealigner(sample.reference).realign(
            sample.reads
        )
        for config in (
            EngineConfig(),
            EngineConfig(workers=2, batch=3),
            EngineConfig(prefilter=False),
        ):
            got, report = IndelRealigner(
                sample.reference, engine=config
            ).realign(sample.reads)
            assert self._sam(got) == self._sam(base)
            assert report.reads_realigned == base_report.reads_realigned
            assert report.sites_built == base_report.sites_built

    def test_engine_scoring_follows_realigner(self, sample):
        from repro.realign.realigner import IndelRealigner

        base, _ = IndelRealigner(sample.reference,
                                 scoring="absdiff").realign(sample.reads)
        got, _ = IndelRealigner(sample.reference, scoring="absdiff",
                                engine=EngineConfig()).realign(sample.reads)
        assert self._sam(got) == self._sam(base)

    def test_engine_rejects_bad_type(self, sample):
        from repro.realign.realigner import IndelRealigner

        realigner = IndelRealigner(sample.reference, engine="turbo")
        with pytest.raises(TypeError):
            realigner.realign(sample.reads)

    def test_fallback_sites_under_chaos_match_with_engine(self, sample):
        """Chaos runs that drain targets to the software fallback stay
        byte-identical when the fallback is served by the engine."""
        from dataclasses import replace

        from repro.core.system import AcceleratedRealigner, SystemConfig
        from repro.resilience.faults import FaultPlan
        from repro.resilience.policy import ResilienceConfig, RetryPolicy

        clean, _run, _report = AcceleratedRealigner(
            sample.reference, SystemConfig.iracc()
        ).realign(sample.reads)
        config = replace(
            SystemConfig.iracc(),
            resilience=ResilienceConfig(
                plan=FaultPlan.chaos(0, 0.9),
                retry=RetryPolicy(max_attempts=1),
            ),
        )
        scalar, run, _ = AcceleratedRealigner(
            sample.reference, config
        ).realign(sample.reads)
        assert run.fallback_site_indices  # chaos actually forced fallbacks
        engined, run2, _ = AcceleratedRealigner(
            sample.reference, config, engine=EngineConfig(workers=2, batch=2)
        ).realign(sample.reads)
        assert run2.fallback_site_indices == run.fallback_site_indices
        assert self._sam(engined) == self._sam(scalar) == self._sam(clean)


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
        serial = self._realign(sample_dir, "serial.sam")
        assert self._realign(
            sample_dir, "workers.sam", "--workers", "2", "--batch", "3"
        ) == serial

    def test_bad_engine_flags_rejected(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main([
            "realign", "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"),
            "--out", str(sample_dir / "bad.sam"), "--workers", "0",
        ]) == 2
        assert "--workers and --batch" in capsys.readouterr().err

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
