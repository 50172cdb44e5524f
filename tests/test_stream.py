"""Tests for the streaming data plane.

The plane's contract is the barrier engine's, incrementally: byte-
identical results at any worker count or queue depth, with bounded
in-flight state. These tests pin that contract at each layer -- the
reorder buffer, the streaming engine, the region cuts, the overlapped refinement pipeline, the
double-buffered dispatch model, the trace export floor, and the CLI.
"""

import json
import re

import numpy as np
import pytest

from repro.engine import (
    Engine,
    EngineConfig,
    ReorderBuffer,
    StreamingEngine,
)
from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.refinement.regions import contig_buckets, split_regions
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def _sites(n=6, seed=11):
    rng = np.random.default_rng(seed)
    return [
        synthesize_site(rng, BENCH_PROFILE,
                        complexity=0.3 + 0.25 * (i % 4))
        for i in range(n)
    ]


def make_read(name, chrom, pos, seq="ACGT", cigar=None, quals=None, **kwargs):
    quals = quals if quals is not None else np.full(len(seq), 30, np.uint8)
    return Read(name, chrom, pos, seq, quals,
                Cigar.parse(cigar or f"{len(seq)}M"), **kwargs)


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
        assert buffer.next_index == 5
        assert buffer.push(5, "x") == ["x"]


class TestStreamingEngine:
    @pytest.mark.parametrize("workers,depth", [(1, 2), (3, 1), (3, 2)])
    def test_matches_barrier_engine(self, workers, depth):
        sites = _sites(10, seed=77)
        with Engine(EngineConfig(workers=workers, batch=3)) as barrier:
            want = barrier.run_sites(sites)
        with StreamingEngine(EngineConfig(workers=workers, batch=3),
                             queue_depth=depth) as stream:
            got = stream.run_sites(sites)
        assert len(got) == len(want) == len(sites)
        for a, b in zip(got, want):
            assert a.same_outputs(b)
            np.testing.assert_array_equal(a.min_whd, b.min_whd)

    def test_stream_sites_yields_in_input_order(self):
        sites = _sites(9, seed=19)
        with Engine(EngineConfig(workers=1, batch=2)) as barrier:
            want = barrier.run_sites(sites)
        # One generator serves both windows: barrier and streaming.
        for engine_cls in (Engine, StreamingEngine):
            with engine_cls(EngineConfig(workers=2, batch=2)) as engine:
                seen = 0
                for got in engine.stream_sites(sites):
                    assert got.same_outputs(want[seen])
                    seen += 1
            assert seen == len(sites)

    def test_window_bounds_in_flight_chunks(self):
        sites = _sites(12, seed=5)
        with StreamingEngine(EngineConfig(workers=2, batch=1),
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
        with StreamingEngine(EngineConfig(workers=2, batch=4)) as stream:
            stream.run_sites(sites)
        assert ([s.shard for s in stream.shard_stats]
                == [s.shard for s in barrier.shard_stats])
        assert ([s.sites for s in stream.shard_stats]
                == [s.sites for s in barrier.shard_stats])

    def test_counters_and_stream_spans_reach_telemetry(self):
        from repro.telemetry import CAT_STREAM, Telemetry

        sites = _sites(6, seed=29)
        telemetry = Telemetry()
        with StreamingEngine(EngineConfig(workers=2, batch=2)) as stream:
            stream.run_sites(sites, telemetry=telemetry)
        flat = telemetry.counters.flat()
        assert flat["kernel.sites"] == len(sites)
        assert flat["stream.chunks"] == 3
        assert flat["stream.queue_depth"] == 2
        spans = [s for s in telemetry.spans if s.category == CAT_STREAM]
        assert len(spans) == 3

    def test_abandoned_generator_releases_arenas_and_pool_survives(self):
        sites = _sites(8, seed=3)
        for engine_cls in (Engine, StreamingEngine):
            with engine_cls(EngineConfig(workers=2, batch=2)) as engine:
                iterator = engine.stream_sites(sites)
                next(iterator)
                iterator.close()
                # The engine is still usable after an abandoned stream.
                assert len(engine.run_sites(sites)) == len(sites)

    def test_abandoned_generator_still_records_stats(self):
        from repro.telemetry import Telemetry

        sites = _sites(8, seed=3)
        for engine_cls, chunk_counter in ((Engine, "engine.shards"),
                                          (StreamingEngine, "stream.chunks")):
            with engine_cls(EngineConfig(workers=2, batch=2)) as engine:
                telemetry = Telemetry()
                iterator = engine.stream_sites(sites, telemetry=telemetry)
                next(iterator)
                iterator.close()
                # The chunks that completed before the abandon are folded
                # into the engine's stats and the telemetry session.
                assert len(engine.shard_stats) >= 1
                flat = telemetry.counters.flat()
                assert flat[chunk_counter] >= 1
                assert flat["kernel.sites"] >= 1
                if engine_cls is StreamingEngine:
                    assert engine.stream_stats["stream.chunks"] >= 1

    def test_empty_and_validation(self):
        with StreamingEngine(EngineConfig()) as stream:
            assert stream.run_sites([]) == []
            assert stream.shard_stats == []
        with pytest.raises(ValueError):
            StreamingEngine(EngineConfig(), queue_depth=0)

    def test_realigner_accepts_streaming_engine(self):
        sample = simulate_sample(
            {"chr22": 9_000},
            profile=SimulationProfile(coverage=16.0, indel_rate=1.5e-3),
            seed=7,
        )
        from repro.realign.realigner import IndelRealigner

        base, base_report = IndelRealigner(sample.reference).realign(
            sample.reads
        )
        with StreamingEngine(EngineConfig(workers=2, batch=3)) as stream:
            got, report = IndelRealigner(
                sample.reference, engine=stream
            ).realign(sample.reads)
        assert ([(r.name, r.pos, str(r.cigar)) for r in got]
                == [(r.name, r.pos, str(r.cigar)) for r in base])
        assert report.reads_realigned == base_report.reads_realigned


class TestRegions:
    def test_contig_buckets_follow_reference_rank(self):
        ref = ReferenceGenome.from_dict({"2": "A" * 50, "1": "A" * 50})
        reads = [
            make_read("a", "1", 5),
            make_read("b", "2", 5),
            make_read("c", "zz", 5),
            Read("u", None, 0, "ACGT", np.full(4, 20, np.uint8)),
            make_read("d", "2", 9),
        ]
        buckets = contig_buckets(reads, ref)
        # Declaration order ("2" first), unknown contigs after, unmapped
        # last; input order preserved inside each bucket.
        assert [[r.name for r in b] for b in buckets] == [
            ["b", "d"], ["a"], ["c"], ["u"]
        ]

    def test_split_regions_cuts_only_past_the_frontier(self):
        # "long" spans to 300, so "mid" at 200 is NOT a cut even though
        # it is > gap past "short"'s end; "far" is past everything.
        long = make_read("long", "1", 0, seq="A" * 300, cigar="300M")
        short = make_read("short", "1", 10)
        mid = make_read("mid", "1", 200)
        far = make_read("far", "1", 500)
        regions = split_regions([long, short, mid, far], region_gap=100)
        assert [[r.name for r in region] for region in regions] == [
            ["long", "short", "mid"], ["far"]
        ]

    def test_unmapped_bucket_stays_whole(self):
        unmapped = [Read(f"u{i}", None, 0, "ACGT",
                         np.full(4, 20, np.uint8)) for i in range(3)]
        assert split_regions(unmapped, region_gap=0) == [unmapped]

    def test_split_regions_validation_and_empty(self):
        assert split_regions([]) == []
        with pytest.raises(ValueError):
            split_regions([make_read("a", "1", 0)], region_gap=-1)


class TestStreamingPipeline:
    @pytest.fixture(scope="class")
    def sample(self):
        # Two contigs, sparse enough for intra-contig gap cuts to fire.
        return simulate_sample(
            {"1": 12_000, "2": 9_000},
            profile=SimulationProfile(coverage=20.0, indel_rate=1e-3),
            seed=17,
        )

    @staticmethod
    def _canon(reads):
        return [
            (r.name, r.chrom, r.pos, str(r.cigar), r.seq,
             r.quals.tobytes(), r.is_duplicate, r.is_reverse)
            for r in reads
        ]

    def test_matches_barrier_pipeline(self, sample):
        from repro.refinement.pipeline import (
            RefinementPipeline,
            StreamingRefinementPipeline,
        )

        barrier = RefinementPipeline(sample.reference).run(sample.reads)
        pipeline = StreamingRefinementPipeline(sample.reference)
        streamed = pipeline.run(sample.reads)
        assert self._canon(streamed.reads) == self._canon(barrier.reads)
        assert (streamed.duplicate_report.duplicates_marked
                == barrier.duplicate_report.duplicates_marked)
        assert (streamed.duplicate_report.reads_examined
                == barrier.duplicate_report.reads_examined)
        assert (streamed.realigner_report.reads_realigned
                == barrier.realigner_report.reads_realigned)
        assert [s.stage for s in streamed.stages] == [
            s.stage for s in barrier.stages
        ]
        assert pipeline.stream_stats["pipeline.regions"] >= 2

    def test_region_gap_and_queue_depth_do_not_change_output(self, sample):
        from repro.refinement.pipeline import (
            RefinementPipeline,
            StreamingRefinementPipeline,
        )

        want = self._canon(
            RefinementPipeline(sample.reference).run(sample.reads).reads
        )
        for gap, depth in ((4096, 1), (8192, 3)):
            got = StreamingRefinementPipeline(
                sample.reference, queue_depth=depth, region_gap=gap
            ).run(sample.reads)
            assert self._canon(got.reads) == want

    def test_streaming_engine_through_the_pipeline(self, sample):
        from repro.refinement.pipeline import (
            RefinementPipeline,
            StreamingRefinementPipeline,
        )

        want = RefinementPipeline(sample.reference).run(sample.reads)
        with StreamingEngine(EngineConfig(workers=2, batch=4)) as engine:
            got = StreamingRefinementPipeline(
                sample.reference, engine=engine
            ).run(sample.reads)
        assert self._canon(got.reads) == self._canon(want.reads)

    def test_accelerated_matches_software_streaming(self, sample):
        from repro.refinement.pipeline import (
            RefinementPipeline,
            StreamingRefinementPipeline,
        )

        software = RefinementPipeline(sample.reference).run(sample.reads)
        accelerated = StreamingRefinementPipeline(
            sample.reference, use_accelerator=True
        ).run(sample.reads)
        assert (self._canon(accelerated.reads)
                == self._canon(software.reads))

    def test_fault_injection_recovers_to_identical_output(self, sample):
        from dataclasses import replace

        from repro.core.system import SystemConfig
        from repro.refinement.pipeline import (
            RefinementPipeline,
            StreamingRefinementPipeline,
        )
        from repro.resilience.policy import ResilienceConfig

        clean = RefinementPipeline(sample.reference).run(sample.reads)
        chaos = replace(
            SystemConfig.iracc(),
            resilience=ResilienceConfig.chaos(7, 0.3),
        )
        faulted = StreamingRefinementPipeline(
            sample.reference, use_accelerator=True, system_config=chaos
        ).run(sample.reads)
        assert self._canon(faulted.reads) == self._canon(clean.reads)

    def test_buckets_exceeding_queue_capacity_do_not_deadlock(self):
        """Regression: feeding all contig buckets from the main thread
        used to deadlock once the buckets outnumbered the aggregate
        queue capacity, because the sole consumer of the final queue
        was itself stuck in ``put()``. The feeder is its own thread
        now; a watchdog keeps a reintroduced deadlock from hanging CI.
        """
        import threading

        from repro.refinement.pipeline import (
            RefinementPipeline,
            StreamingRefinementPipeline,
        )

        ref = ReferenceGenome.from_dict(
            {f"c{i}": "ACGT" * 500 for i in range(6)}
        )
        reads = [
            make_read(f"r{i}_{j}", f"c{i}", j * 400, seq="ACGT" * 10)
            for i in range(6)
            for j in range(4)
        ]
        want = self._canon(RefinementPipeline(ref).run(reads).reads)
        pipeline = StreamingRefinementPipeline(
            ref, queue_depth=1, region_gap=50
        )
        outcome = {}

        def _run():
            outcome["result"] = pipeline.run(reads)

        runner = threading.Thread(target=_run, daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), (
            "streaming pipeline deadlocked with more contig buckets "
            "than aggregate queue capacity"
        )
        assert self._canon(outcome["result"].reads) == want
        assert pipeline.stream_stats["pipeline.regions"] >= 9

    def test_drain_failure_joins_stage_threads(self, sample, monkeypatch):
        """A failure in the main-thread BQSR drain loop must not leak
        blocked stage threads."""
        import threading

        import repro.refinement.pipeline as pipeline_module
        from repro.refinement.pipeline import StreamingRefinementPipeline

        def _boom(*args, **kwargs):
            raise RuntimeError("drain boom")

        monkeypatch.setattr(pipeline_module, "merge_columns", _boom)
        with pytest.raises(RuntimeError, match="drain boom"):
            StreamingRefinementPipeline(sample.reference).run(sample.reads)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("refine-")]

    def test_stage_errors_propagate(self, sample):
        from repro.refinement.pipeline import StreamingRefinementPipeline

        real = sample.reference

        class ExplodingReference:
            """Sort survives (rank lookups only); realign's first
            ``fetch`` explodes inside its stage thread."""

            contig_names = real.contig_names

            def length(self, chrom):
                return real.length(chrom)

            def __contains__(self, chrom):
                return chrom in real

            def fetch(self, *args):
                raise RuntimeError("boom")

        pipeline = StreamingRefinementPipeline(ExplodingReference())
        with pytest.raises(RuntimeError, match="boom"):
            pipeline.run(sample.reads)

    def test_telemetry_spans_and_counters(self, sample):
        from repro.refinement.pipeline import StreamingRefinementPipeline
        from repro.telemetry import CAT_STREAM, Telemetry

        telemetry = Telemetry(label="pipeline")
        pipeline = StreamingRefinementPipeline(sample.reference)
        pipeline.run(sample.reads, telemetry=telemetry)
        flat = telemetry.counters.flat()
        regions = flat["pipeline.regions"]
        assert regions == pipeline.stream_stats["pipeline.regions"]
        spans = [s for s in telemetry.spans if s.category == CAT_STREAM]
        # One span per region per stage (sort spans are per contig
        # bucket, so at least one per contig).
        assert len(spans) >= 3 * regions

    def test_queue_depth_validation(self, sample):
        from repro.refinement.pipeline import StreamingRefinementPipeline

        with pytest.raises(ValueError):
            StreamingRefinementPipeline(sample.reference, queue_depth=0)


class TestDoubleBufferedDispatch:
    def _run(self, double_buffer):
        from dataclasses import replace

        from repro.core.system import AcceleratedIRSystem, SystemConfig

        sites = _sites(8, seed=13)
        config = replace(SystemConfig.iracc(), dispatch_batch=4,
                         double_buffer=double_buffer)
        return AcceleratedIRSystem(config).run(sites), sites

    def test_default_stays_single_buffered(self):
        from repro.core.system import SystemConfig

        assert SystemConfig().double_buffer is False
        assert SystemConfig.iracc().double_buffer is False

    def test_overlap_never_slows_the_schedule(self):
        single, _ = self._run(double_buffer=False)
        double, _ = self._run(double_buffer=True)
        assert double.schedule.makespan <= single.schedule.makespan
        # Same kernel work either way -- only the charged turnaround moves.
        assert [r.cycles.total for r in double.unit_results] == [
            r.cycles.total for r in single.unit_results
        ]

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
        return self._realign(sample_dir, "serial.sam")

    def _realign(self, sample_dir, out_name, *extra):
        from repro.__main__ import main as cli_main

        out = sample_dir / out_name
        assert cli_main([
            "realign", "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"),
            "--out", str(out), *extra,
        ]) == 0
        return out.read_bytes()

    def test_stream_flags_keep_sam_identical(self, sample_dir):
        serial = self._realign(sample_dir, "serial.sam")
        assert self._realign(
            sample_dir, "stream.sam", "--stream", "--workers", "2",
            "--queue-depth", "3",
        ) == serial

    @pytest.mark.parametrize("flags", [
        ("--workers", "2"),
        ("--workers", "2", "--stream"),
        ("--workers", "2", "--site-cache-mb", "8"),
        ("--workers", "2", "--stream", "--site-cache-mb", "8"),
    ], ids=["pool", "stream", "cache", "stream-cache"])
    def test_cache_composes_with_every_window(self, sample_dir, serial,
                                              capsys, flags):
        # Regression: the cache lived on a third plane, so --stream
        # --site-cache-mb dropped --stream, did the work, then died on
        # engine.stream_stats before the SAM was written.
        assert self._realign(sample_dir, "flags.sam", *flags) == serial
        assert ("stream: " in capsys.readouterr().out) == (
            "--stream" in flags)

    def test_shards_flag_is_gone(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        # ... and so is --no-shmem: there is one payload to choose from.
        for gone, flags in (("--shards", ("--shards", "2")),
                            ("--no-shmem", ("--stream", "--no-shmem"))):
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

    def test_accelerated_chaos_fallback_accepts_any_plane(self, sample_dir):
        # Regression: AcceleratedRealigner carried a stale copy of the
        # engine resolver that raised TypeError on a non-Engine plane
        # as soon as one target drained to the software fallback.
        chaos = ("--accelerated", "--fault-rate", "0.9", "--chaos-seed", "3")
        control = self._realign(sample_dir, "chaos-inline.sam", *chaos)
        assert self._realign(sample_dir, "chaos-stream.sam", *chaos,
                             "--workers", "2", "--stream",
                             "--site-cache-mb", "8") == control

    def test_recovery_line_follows_the_flags(self, sample_dir, capsys,
                                             monkeypatch):
        # Fault-free: the summary appears exactly when a recovery flag
        # was given (it also appears, unasked, after real recovery).
        monkeypatch.delenv("REPRO_WORKER_FAULT_RATE", raising=False)
        self._realign(sample_dir, "quiet.sam", "--workers", "2")
        assert "recovery:" not in capsys.readouterr().out
        self._realign(sample_dir, "asked.sam", "--workers", "2",
                      "--chunk-deadline", "20")
        assert "recovery: deadline 20s, 0 worker faults injected, " \
               "0 retries" in capsys.readouterr().out
        # Faulted: the pool takes the chaos flags, reports what it
        # observed, and still writes the serial SAM.
        serial = self._realign(sample_dir, "serial.sam")
        for plane in (("--workers", "2"),
                      ("--workers", "2", "--chunk-deadline", "5")):
            capsys.readouterr()
            assert self._realign(
                sample_dir, "faulted.sam", *plane,
                "--worker-fault-rate", "0.3", "--chaos-seed", "3",
            ) == serial
            line = re.search(r"recovery: .* (\d+) worker faults injected, "
                             r"(\d+) retries", capsys.readouterr().out)
            assert line and int(line[1]) > 0 and int(line[2]) > 0

    @pytest.mark.parametrize("name,value,extra", [
        ("REPRO_WORKER_FAULT_RATE", "lots", ("--workers", "2")),
        ("REPRO_CHUNK_DEADLINE", "0", ()),
    ], ids=["fault-rate", "deadline-zero"])
    def test_bad_env_number_exits_2(self, sample_dir, monkeypatch, capsys,
                                    name, value, extra):
        from repro.__main__ import main as cli_main

        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exit_info:
            cli_main([
                "realign", "--reference", str(sample_dir / "reference.fa"),
                "--sam", str(sample_dir / "aligned.sam"),
                "--out", str(sample_dir / "bad-env.sam"), *extra,
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{name}={value!r}" in err
        assert "Traceback" not in err

    def test_bad_queue_depth_rejected(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main([
            "realign", "--reference", str(sample_dir / "reference.fa"),
            "--sam", str(sample_dir / "aligned.sam"),
            "--out", str(sample_dir / "bad.sam"),
            "--stream", "--queue-depth", "0",
        ]) == 2
        assert "--queue-depth" in capsys.readouterr().err

    def test_trace_records_stream_session(self, sample_dir, capsys):
        from repro.__main__ import main as cli_main

        trace = sample_dir / "trace.json"
        assert cli_main([
            "trace", "--out", str(trace), "--sites", "8",
            "--workers", "2", "--batch", "4", "--stream",
        ]) == 0
        assert "[stream]" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        processes = {
            e["args"]["name"] for e in payload["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert "stream" in processes
