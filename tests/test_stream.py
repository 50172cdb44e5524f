"""Tests for the engine's bounded in-flight window.

The one engine streams: byte-identical results at any worker count or
queue depth -- a window that holds every chunk (the old barrier)
included -- with bounded in-flight state. These tests pin that
contract at each layer -- the reorder buffer, the windowed engine, the
double-buffered dispatch model, the trace export floor, and the CLI.
"""

import json
import math

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig, ReorderBuffer
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def _barrier(config, sites):
    """The engine whose window holds every chunk of ``sites``: the
    barrier schedule, which submits everything up front."""
    chunks = math.ceil(len(sites) / config.batch)
    return Engine(config, queue_depth=math.ceil(chunks / config.workers))


def _sites(n=6, seed=11):
    rng = np.random.default_rng(seed)
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=0.3 + 0.25 * (i % 4))
        for i in range(n)
    ]


class TestReorderBuffer:
    def test_in_order_pushes_emit_immediately(self):
        buffer = ReorderBuffer()
        assert buffer.push(0, "a") == ["a"]
        assert buffer.push(1, "b") == ["b"]
        assert buffer.pending == 0
        assert buffer.peak_pending == 1

    def test_out_of_order_holds_then_flushes_run(self):
        buffer = ReorderBuffer()
        assert buffer.push(3, "d") == []
        assert buffer.push(1, "b") == []
        assert buffer.push(0, "a") == ["a", "b"]
        assert buffer.push(2, "c") == ["c", "d"]
        assert buffer.pending == 0
        assert buffer.peak_pending == 3

    def test_duplicate_and_stale_indices_rejected(self):
        buffer = ReorderBuffer()
        buffer.push(1, "b")
        with pytest.raises(ValueError):
            buffer.push(1, "again")
        buffer.push(0, "a")
        with pytest.raises(ValueError):
            buffer.push(0, "stale")

    def test_custom_start(self):
        buffer = ReorderBuffer(start=5)
        assert buffer.push(5, "x") == ["x"]


class TestStreamingEngine:
    @pytest.mark.parametrize("workers,depth", [(1, 2), (3, 1), (3, 2)])
    def test_matches_barrier_engine(self, workers, depth):
        sites = _sites(10, seed=77)
        config = EngineConfig(workers=workers, batch=3)
        with _barrier(config, sites) as barrier:
            want = barrier.run_sites(sites)
        with Engine(config, queue_depth=depth) as stream:
            got = stream.run_sites(sites)
        assert len(got) == len(want) == len(sites)
        for a, b in zip(got, want):
            assert a.same_outputs(b)
            np.testing.assert_array_equal(a.min_whd, b.min_whd)

    def test_stream_sites_yields_in_input_order(self):
        sites = _sites(9, seed=19)
        with Engine(EngineConfig(workers=1, batch=2)) as barrier:
            want = barrier.run_sites(sites)
        # One generator serves every window, the barrier's included.
        config = EngineConfig(workers=2, batch=2)
        for engine in (Engine(config), _barrier(config, sites)):
            with engine:
                seen = 0
                for got in engine.stream_sites(sites):
                    assert got.same_outputs(want[seen])
                    seen += 1
            assert seen == len(sites)

    def test_window_bounds_in_flight_chunks(self):
        sites = _sites(12, seed=5)
        with Engine(EngineConfig(workers=2, batch=1),
                    queue_depth=1) as stream:
            stream.run_sites(sites)
            stats = stream.stream_stats
        assert stats["stream.chunks"] == 12
        assert 1 <= stats["stream.max_in_flight"] <= 2  # depth x workers
        assert stats["stream.reorder_peak"] <= 2

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
        # The window's counters and the one chunk timeline, pooled or
        # inline.
        for workers in (2, 1):
            telemetry = Telemetry()
            with Engine(EngineConfig(workers=workers, batch=2)) as stream:
                stream.run_sites(sites, telemetry=telemetry)
            flat = telemetry.counters.flat()
            assert flat["kernel.sites"] == len(sites)
            assert flat["stream.chunks"] == flat["engine.shards"] == 3
            assert flat["stream.queue_depth"] == 2
            assert {s.category for s in telemetry.spans} == {CAT_ENGINE}
            assert len(telemetry.spans) == 3

    def test_engine_survives_an_abandoned_generator(self):
        sites = _sites(8, seed=3)
        for depth in (1, 2, 4):
            with Engine(EngineConfig(workers=2, batch=2),
                        queue_depth=depth) as engine:
                iterator = engine.stream_sites(sites)
                next(iterator)
                iterator.close()
                # The engine is still usable after an abandoned stream.
                assert len(engine.run_sites(sites)) == len(sites)

    def test_abandoned_generator_still_records_stats(self):
        from repro.telemetry import Telemetry

        sites = _sites(8, seed=3)
        for depth in (1, 2, 4):
            with Engine(EngineConfig(workers=2, batch=2),
                        queue_depth=depth) as engine:
                telemetry = Telemetry()
                iterator = engine.stream_sites(sites, telemetry=telemetry)
                next(iterator)
                iterator.close()
                # The chunks that completed before the abandon are folded
                # into the engine's stats and the telemetry session.
                assert len(engine.shard_stats) >= 1
                flat = telemetry.counters.flat()
                assert flat["engine.shards"] >= 1
                assert flat["stream.chunks"] >= 1
                assert flat["kernel.sites"] >= 1
                assert engine.stream_stats["stream.chunks"] >= 1

    def test_empty_and_validation(self):
        with Engine(EngineConfig()) as stream:
            assert stream.run_sites([]) == []
            assert stream.shard_stats == []
            assert stream.stream_stats == {}
        with pytest.raises(ValueError, match="queue_depth must be >= 1"):
            Engine(EngineConfig(), queue_depth=0)

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
        with Engine(EngineConfig(workers=2, batch=3),
                    queue_depth=1) as stream:
            got, report = IndelRealigner(
                sample.reference, engine=stream
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
        # Only a pool has a window, so only a pooled run prints it.
        serial = self._realign(sample_dir, "serial.sam", "--workers", "1")
        assert "stream: " not in capsys.readouterr().out
        assert self._realign(
            sample_dir, "stream.sam", "--workers", "4", "--batch", "3",
        ) == serial
        assert "stream: " in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ("--workers", "2"),
        ("--workers", "2", "--site-cache-mb", "8"),
    ], ids=["pool", "cache"])
    def test_cache_composes_with_every_window(self, sample_dir, serial,
                                              capsys, flags):
        # Regression: the cache lived on a third plane, so a windowed
        # run with --site-cache-mb dropped the window, did the work,
        # then died on engine.stream_stats before the SAM was written.
        assert self._realign(sample_dir, "flags.sam", *flags) == serial
        assert "stream: " in capsys.readouterr().out

    def test_shards_flag_is_gone(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        # ... and so are --no-shmem (one payload to choose from) and
        # --stream / --queue-depth (one window, at a fixed depth).
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

        # The window depth is fixed, so no depth — a bad one least of
        # all — gets past the parser, and nothing is written.
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

        # One engine session: the window's counters ride on it, and the
        # pooled run prints its stream: line.
        trace = sample_dir / "trace.json"
        assert cli_main([
            "trace", "--out", str(trace), "--sites", "8",
            "--workers", "2", "--batch", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "[engine]" in out and "stream: " in out
        payload = json.loads(trace.read_text())
        processes = [
            e["args"]["name"] for e in payload["traceEvents"]
            if e.get("name") == "process_name"
        ]
        assert processes.count("engine") == 1
        assert "stream" not in processes
