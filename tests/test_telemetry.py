"""Unit tests for the telemetry subsystem and its CLI surface.

Covers the counter board, span records, derived metrics, the Chrome
trace exporter (single- and multi-session), fleet span recording, the
``python -m repro trace`` command, and the up-front output-path
validation that replaced the realigner's end-of-run failure mode.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.__main__ import main as cli_main
from repro.core.scheduler import ScheduledTarget, schedule_async
from repro.telemetry import (
    CAT_COMPUTE,
    CAT_TRANSFER,
    CHANNEL_UNIT,
    CounterBoard,
    Telemetry,
    TraceSpan,
    to_chrome_trace,
    unit_track,
    write_chrome_trace,
)
from repro.telemetry.metrics import derive_schedule_metrics

TARGETS = [
    ScheduledTarget(index=i, transfer_cycles=50, compute_cycles=c)
    for i, c in enumerate((400, 100, 800, 200))
]


class TestCounters:
    def test_flat_prefixes_units_and_pseudo_units(self):
        board = CounterBoard()
        board.add("schedule.targets", 4)
        board.unit(0).busy_cycles += 10
        board.unit(CHANNEL_UNIT).busy_cycles += 3
        flat = board.flat()
        assert flat["schedule.targets"] == 4
        assert flat["unit0.busy_cycles"] == 10
        assert flat["channel.busy_cycles"] == 3

    def test_occupancy_and_pruned_fraction(self):
        board = CounterBoard()
        block = board.unit(2)
        block.busy_cycles, block.idle_cycles = 30, 70
        block.whd_cells_evaluated, block.whd_cells_pruned = 60, 40
        assert block.total_cycles == 100
        assert block.occupancy == pytest.approx(0.3)
        assert block.pruned_fraction == pytest.approx(0.4)

    def test_unit_track_names(self):
        assert unit_track(3) == "unit 3"
        assert unit_track(CHANNEL_UNIT) == "pcie-channel"


class TestSpans:
    def test_span_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            TraceSpan(name="bad", track="unit 0", start=10, end=5)

    def test_span_sets_are_comparable(self):
        a = Telemetry()
        b = Telemetry()
        for session in (a, b):
            session.span("target 0", "unit 0", 0, 100, CAT_COMPUTE)
            session.span("xfer 0", "pcie-channel", 0, 10, CAT_TRANSFER)
        assert set(a.spans) == set(b.spans)
        b.span("target 1", "unit 1", 0, 50, CAT_COMPUTE)
        assert set(a.spans) != set(b.spans)

    def test_finalize_unit_cycles_accounting(self):
        telemetry = Telemetry()
        result = schedule_async(TARGETS, 2, telemetry=telemetry)
        for block in telemetry.counters.iter_units():
            assert block.busy_cycles + block.idle_cycles == result.makespan
            assert block.stall_cycles <= block.idle_cycles
        completed = sum(
            block.targets_completed
            for block in telemetry.counters.iter_units()
        )
        assert completed == len(TARGETS)


class TestMetrics:
    def test_critical_path_is_a_zero_slack_chain(self):
        telemetry = Telemetry()
        telemetry.span("xfer 0", "pcie-channel", 0, 10, CAT_TRANSFER)
        telemetry.span("target 0", "unit 0", 10, 110, CAT_COMPUTE)
        telemetry.span("target 1", "unit 1", 30, 90, CAT_COMPUTE)
        metrics = derive_schedule_metrics(telemetry)
        assert metrics.makespan_ticks == 110
        assert metrics.critical_path_spans == 2  # xfer 0 -> target 0
        assert metrics.critical_path_ticks == 110

    def test_critical_path_ends_on_zero_width_spans_sharing_a_tick(self):
        # Two free transfers at tick 0 are each other's predecessor;
        # the walk used to alternate between them forever.
        telemetry = Telemetry()
        telemetry.span("xfer 0", "pcie-channel", 0, 0, CAT_TRANSFER)
        telemetry.span("xfer 1", "pcie-channel", 0, 0, CAT_TRANSFER)
        telemetry.span("target 0", "unit 0", 0, 100, CAT_COMPUTE)
        metrics = derive_schedule_metrics(telemetry)
        assert metrics.critical_path_ticks == 100
        assert metrics.critical_path_spans == 3

    def test_describe_mentions_every_headline_number(self):
        telemetry = Telemetry()
        schedule_async(TARGETS, 2, telemetry=telemetry)
        text = derive_schedule_metrics(telemetry).describe()
        for needle in ("makespan", "occupancy", "channel utilization",
                       "critical path"):
            assert needle in text


class TestChromeTraceExport:
    def test_single_session_structure(self, tmp_path):
        telemetry = Telemetry(label="unit-test")
        schedule_async(TARGETS, 2, telemetry=telemetry)
        path = write_chrome_trace(telemetry, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {"X", "M"} <= {event["ph"] for event in events}
        names = [event["args"]["name"] for event in events
                 if event.get("name") == "process_name"]
        assert names == ["unit-test"]
        spans = [event for event in events if event["ph"] == "X"]
        assert len(spans) == len(telemetry.spans)
        for event in spans:
            assert event["ts"] >= 0 and event["dur"] >= 0
        counters = payload["otherData"]["counters"]
        assert counters["unit0.targets_completed"] + \
            counters["unit1.targets_completed"] == len(TARGETS)

    def test_multi_session_gets_distinct_pids(self):
        a, b = Telemetry(label="first"), Telemetry(label="second")
        schedule_async(TARGETS, 2, telemetry=a)
        schedule_async(TARGETS, 2, telemetry=b)
        payload = to_chrome_trace([a, b])
        pids = {event["pid"] for event in payload["traceEvents"]}
        assert pids == {1, 2}
        assert set(payload["otherData"]["counters"]) == {"first", "second"}

    def test_empty_session_list_rejected(self):
        with pytest.raises(ValueError):
            to_chrome_trace([])

    def test_channel_sorts_before_units_before_host(self):
        # Host tracks (engine shards, fleet instances) follow the units.
        telemetry = Telemetry()
        telemetry.span("a", "engine shard 0", 0, 1, CAT_COMPUTE)
        telemetry.span("b", "unit 1", 0, 1, CAT_COMPUTE)
        telemetry.span("c", "pcie-channel", 0, 1, CAT_TRANSFER)
        payload = to_chrome_trace(telemetry)
        order = [event["args"]["name"] for event in payload["traceEvents"]
                 if event.get("name") == "thread_name"]
        assert order == ["pcie-channel", "unit 1", "engine shard 0"]


class TestFleetSpans:
    def test_fleet_plan_tiles_instance_tracks(self):
        from repro.perf.fleet import FleetJob, plan_fleet, record_fleet_spans

        jobs = [FleetJob(name=f"chr{i}", seconds=100.0 + i) for i in range(6)]
        plan = plan_fleet(jobs, 2)
        telemetry = Telemetry()
        record_fleet_spans(telemetry, plan)
        assert telemetry.ticks_per_second == 1.0
        flat = telemetry.counters.flat()
        assert flat["fleet.instances"] == 2
        assert flat["fleet.jobs"] == 6
        for index, assigned in plan.assignments.items():
            track = f"instance {index}"
            spans = [s for s in telemetry.spans if s.track == track]
            assert len(spans) == len(assigned)
            clock = 0.0
            for span in spans:  # back-to-back in assignment order
                assert span.start == clock
                clock = span.end
            assert clock == sum(job.seconds for job in assigned)


class TestTraceCommand:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli_main([
            "trace", "--out", str(out), "--sites", "6",
        ]) == 0
        payload = json.loads(out.read_text())
        process_names = [
            event["args"]["name"] for event in payload["traceEvents"]
            if event.get("name") == "process_name"
        ]
        assert process_names == ["sync", "async", "engine"]
        assert any(event["ph"] == "X" for event in payload["traceEvents"])
        captured = capsys.readouterr().out
        assert "[sync]" in captured and "[async]" in captured
        assert "[engine]" in captured

    def test_trace_fleet_session(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli_main([
            "trace", "--out", str(out), "--sites", "6", "--fleet", "2",
        ]) == 0
        payload = json.loads(out.read_text())
        process_names = [
            event["args"]["name"] for event in payload["traceEvents"]
            if event.get("name") == "process_name"
        ]
        assert process_names == ["sync", "async", "fleet", "engine"]
        fleet = payload["otherData"]["counters"]["fleet"]
        assert (fleet["fleet.instances"], fleet["fleet.jobs"]) == (2, 4)
        assert "[fleet] 4 jobs on 2 instances" in capsys.readouterr().out


class TestOutputPathValidation:
    """Regression: ``realign --out`` used to fail only *after* the whole
    run when its parent directory was missing or unwritable."""

    def _err(self, capsys) -> str:
        return capsys.readouterr().err

    def test_realign_out_missing_parent_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "realign", "--reference", "/tmp/whatever.fa",
                "--sam", "/tmp/whatever.sam",
                "--out", "/no/such/dir/out.sam",
            ])
        assert excinfo.value.code == 2
        assert "does not exist" in self._err(capsys)

    def test_realign_out_unwritable_parent_fails_at_parse_time(
        self, tmp_path, capsys
    ):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        if os.access(locked, os.W_OK):  # e.g. running as root
            pytest.skip("cannot create an unwritable directory here")
        try:
            with pytest.raises(SystemExit) as excinfo:
                cli_main([
                    "realign", "--reference", "/tmp/r.fa",
                    "--sam", "/tmp/r.sam",
                    "--out", str(locked / "out.sam"),
                ])
            assert excinfo.value.code == 2
            assert "not writable" in self._err(capsys)
        finally:
            locked.chmod(stat.S_IRWXU)

    def test_out_pointing_at_directory_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "trace", "--out", str(tmp_path),
            ])
        assert excinfo.value.code == 2
        assert "is a directory" in self._err(capsys)

    def test_telemetry_flag_path_is_validated_too(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "realign", "--reference", "/tmp/r.fa", "--sam", "/tmp/r.sam",
                "--out", "/tmp/out.sam",
                "--telemetry", "/no/such/dir/trace.json",
            ])
        assert excinfo.value.code == 2
        assert "does not exist" in self._err(capsys)

    def test_simulate_out_through_nonexistent_file_rejected(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "simulate", "--out", str(blocker / "nested" / "dir"),
            ])
        assert excinfo.value.code == 2
        assert "not a directory" in self._err(capsys)

    def test_simulate_out_creates_nested_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "sample"
        assert cli_main([
            "simulate", "--out", str(target), "--length", "4000",
            "--coverage", "8",
        ]) == 0
        assert (target / "reference.fa").exists()

    def test_software_telemetry_writes_one_engine_span_per_chunk(
        self, tmp_path, capsys
    ):
        # The software path (no --accelerated) writes a trace too: one
        # CAT_ENGINE span per chunk, each on its own "engine shard N"
        # track, so the units' chunks can be seen side by side.
        sample = tmp_path / "sample"
        assert cli_main([
            "simulate", "--out", str(sample), "--length", "9000",
            "--coverage", "14", "--indel-rate", "0.0015", "--seed", "7",
        ]) == 0
        capsys.readouterr()
        trace_path = tmp_path / "software-trace.json"
        assert cli_main([
            "realign", "--reference", str(sample / "reference.fa"),
            "--sam", str(sample / "aligned.sam"),
            "--out", str(sample / "out.sam"),
            "--workers", "2", "--batch", "2",
            "--telemetry", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace -> {trace_path}" in out
        sites = int(out.split(" sites, ")[0].rsplit(" ", 1)[1])
        chunks = -(-sites // 2)
        assert chunks >= 2
        payload = json.loads(trace_path.read_text())
        spans = [event for event in payload["traceEvents"]
                 if event["ph"] == "X"]
        assert [event["cat"] for event in spans] == ["engine"] * chunks
        assert sorted(event["name"].split(" (")[0] for event in spans) == \
            sorted(f"shard {index}" for index in range(chunks))
        assert len({event["tid"] for event in spans}) == chunks
        counters = payload["otherData"]["counters"]
        assert counters["engine.shards"] == chunks
        assert counters["engine.workers"] == 2

    def test_realign_telemetry_writes_trace(self, tmp_path, capsys):
        sample = tmp_path / "sample"
        assert cli_main([
            "simulate", "--out", str(sample), "--length", "5000",
            "--coverage", "10",
        ]) == 0
        trace_path = tmp_path / "realign-trace.json"
        assert cli_main([
            "realign", "--reference", str(sample / "reference.fa"),
            "--sam", str(sample / "aligned.sam"),
            "--out", str(sample / "out.sam"),
            "--accelerated", "--telemetry", str(trace_path),
        ]) == 0
        payload = json.loads(trace_path.read_text())
        assert any(event["ph"] == "X" for event in payload["traceEvents"])
        assert "telemetry:" in capsys.readouterr().out
