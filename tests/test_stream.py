"""Tests for the engine's pooled dispatch.

One entry point, ``Engine.run_sites``: byte-identical results at any
worker count, chunk size or completion order. These tests pin that
contract at each layer -- the pooled engine, the double-buffered
dispatch model, the trace export floor, and the CLI.
"""

import json

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def _sites(n=6, seed=11):
    rng = np.random.default_rng(seed)
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=0.3 + 0.25 * (i % 4))
        for i in range(n)
    ]


class TestStreamingEngine:
    @pytest.mark.parametrize("workers,batch",
                             [(1, 2), (3, 1), (3, 2), (2, 2), (2, 4)])
    def test_matches_barrier_engine(self, workers, batch):
        """Against the barrier: one inline chunk holding every site."""
        sites = _sites(10, seed=77)
        want = Engine(EngineConfig(workers=1, batch=len(sites))).run_sites(
            sites)
        with Engine(EngineConfig(workers=workers, batch=batch)) as engine:
            got = engine.run_sites(sites)
        assert len(got) == len(want) == len(sites)
        for a, b in zip(got, want):
            assert a.same_outputs(b)
            np.testing.assert_array_equal(a.min_whd, b.min_whd)

    def test_shard_stats_match_barrier_layout(self):
        sites = _sites(9, seed=19)
        barrier = Engine(EngineConfig(workers=1, batch=4))
        barrier.run_sites(sites)
        with Engine(EngineConfig(workers=2, batch=4)) as stream:
            stream.run_sites(sites)
        assert ([s.shard for s in stream.shard_stats]
                == [s.shard for s in barrier.shard_stats])
        assert ([s.sites for s in stream.shard_stats]
                == [s.sites for s in barrier.shard_stats])

    def test_counters_and_stream_spans_reach_telemetry(self):
        from repro.telemetry import CAT_ENGINE, Telemetry

        sites = _sites(6, seed=29)
        # The chunk counters and the one chunk timeline, pooled or
        # inline; no window, so no stream.* counter.
        for workers in (2, 1):
            telemetry = Telemetry()
            with Engine(EngineConfig(workers=workers, batch=2)) as engine:
                engine.run_sites(sites, telemetry=telemetry)
            flat = telemetry.counters.flat()
            assert flat["kernel.sites"] == len(sites)
            assert flat["engine.shards"] == len(engine.shard_stats) == 3
            assert not [name for name in flat if name.startswith("stream.")]
            assert {s.category for s in telemetry.spans} == {CAT_ENGINE}
            assert len(telemetry.spans) == 3

    def test_empty_and_validation(self):
        with Engine(EngineConfig()) as engine:
            assert engine.run_sites([]) == []
            assert engine.shard_stats == []
            assert engine.stream_stats == {}
        with pytest.raises(TypeError, match="queue_depth"):
            Engine(EngineConfig(), queue_depth=2)

    def test_realigner_accepts_streaming_engine(self):
        sample = simulate_sample(
            {"chr22": 9_000},
            profile=SimulationProfile(coverage=16.0, indel_rate=1.5e-3),
            seed=7,
        )
        from repro.realign.realigner import IndelRealigner

        base, base_report = IndelRealigner(
            sample.reference, engine=EngineConfig(workers=1)
        ).realign(sample.reads)
        with Engine(EngineConfig(workers=2, batch=3)) as engine:
            got, report = IndelRealigner(
                sample.reference, engine=engine
            ).realign(sample.reads)
        assert ([(r.name, r.pos, str(r.cigar)) for r in got]
                == [(r.name, r.pos, str(r.cigar)) for r in base])
        assert report.reads_realigned == base_report.reads_realigned


class TestDoubleBufferedDispatch:
    def test_figure7_overlapped_rows(self):
        from repro.experiments.figure7 import run

        outcome = run()
        assert (outcome.async_overlapped.makespan
                <= outcome.async_turnaround.makespan)
        assert outcome.overlap_speedup >= 1.0


class TestExportFloor:
    def test_zero_width_spans_export_a_visible_sliver(self):
        from repro.telemetry import Telemetry, to_chrome_trace
        from repro.telemetry.export import MIN_SPAN_DURATION_US

        telemetry = Telemetry(label="floor")
        telemetry.ticks_per_second = 1.0
        telemetry.span("instantish", "track", 1.0, 1.0)
        telemetry.span("real", "track", 2.0, 5.0)
        events = to_chrome_trace(telemetry)["traceEvents"]
        durs = {e["name"]: e["dur"] for e in events if e["ph"] == "X"}
        assert durs["instantish"] == MIN_SPAN_DURATION_US
        assert durs["real"] == pytest.approx(3e6)


class TestStreamCli:
    @pytest.fixture(scope="class")
    def sample_dir(self, tmp_path_factory):
        from repro.__main__ import main as cli_main

        out = tmp_path_factory.mktemp("stream-cli") / "sample"
        assert cli_main([
            "simulate", "--out", str(out), "--length", "9000",
            "--coverage", "14", "--indel-rate", "0.0015", "--seed", "7",
        ]) == 0
        return out

    @pytest.fixture(scope="class")
    def serial(self, sample_dir):
        return self._realign(sample_dir, "serial.sam", "--workers", "1")

    def _realign(self, sample_dir, out_name, *extra):
        from repro.__main__ import main as cli_main

        out = sample_dir / out_name
        assert cli_main([
            "realign", "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"),
            "--out", str(out), *extra,
        ]) == 0
        return out.read_bytes()

    def test_stream_flags_keep_sam_identical(self, sample_dir, capsys):
        # No run has a window, so none prints a stream: line; the
        # engine: line names the config that ran.
        serial = self._realign(sample_dir, "serial.sam", "--workers", "1")
        out = capsys.readouterr().out
        assert "engine: workers=1 batch=8 " in out
        assert "stream: " not in out
        assert self._realign(
            sample_dir, "stream.sam", "--workers", "4", "--batch", "3",
        ) == serial
        out = capsys.readouterr().out
        assert "engine: workers=4 batch=3 " in out
        assert "stream: " not in out

    @pytest.mark.parametrize("flags", [
        ("--workers", "2"),
        ("--workers", "2", "--site-cache-mb", "8"),
    ], ids=["pool", "cache"])
    def test_cache_composes_with_every_window(self, sample_dir, serial,
                                              capsys, flags):
        # Regression: the cache lived on a third plane, so a pooled run
        # with --site-cache-mb dropped the pool, did the work, then died
        # on the engine's stats before the SAM was written.
        assert self._realign(sample_dir, "flags.sam", *flags) == serial
        assert "engine: workers=2 " in capsys.readouterr().out

    def test_shards_flag_is_gone(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        # ... and so are --no-shmem (one payload to choose from) and
        # --stream / --queue-depth (no window).
        for gone, flags in (("--shards", ("--shards", "2")),
                            ("--no-shmem", ("--no-shmem",)),
                            ("--stream", ("--stream",)),
                            ("--queue-depth", ("--queue-depth", "3"))):
            with pytest.raises(SystemExit) as exit_info:
                cli_main([
                    "realign",
                    "--reference", str(sample_dir / "reference.fa"),
                    "--sam", str(sample_dir / "aligned.sam"),
                    "--out", str(sample_dir / "gone.sam"), *flags,
                ])
            assert exit_info.value.code == 2
            assert (f"unrecognized arguments: {gone}"
                    in capsys.readouterr().err)

    def test_bad_queue_depth_rejected(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        # There is no window, so no depth -- a bad one least of all --
        # gets past the parser, and nothing is written.
        out = sample_dir / "bad.sam"
        with pytest.raises(SystemExit) as exit_info:
            cli_main([
                "realign", "--reference", str(sample_dir / "reference.fa"),
                "--sam", str(sample_dir / "aligned.sam"),
                "--out", str(out), "--queue-depth", "0",
            ])
        assert exit_info.value.code == 2
        assert "--queue-depth" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_records_stream_session(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        # One engine session, and no stream: line (there is no window).
        trace = sample_dir / "trace.json"
        assert cli_main([
            "trace", "--out", str(trace), "--sites", "8",
            "--workers", "2", "--batch", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "[engine]" in out and "stream: " not in out
        payload = json.loads(trace.read_text())
        processes = [
            e["args"]["name"] for e in payload["traceEvents"]
            if e.get("name") == "process_name"
        ]
        assert processes.count("engine") == 1
        assert "stream" not in processes
