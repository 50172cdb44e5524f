"""The serving plane: request coalescing, backpressure, byte-identity.

Three layers under test:

- the pure pieces (wire protocol, percentile math, region-job
  partitioning, seeded load schedules) -- deterministic, no sockets,
  exact expected values;
- the :class:`RealignmentService` request plane against stub engines --
  reject-only admission under one global cap, deadlines, graceful
  drain, coalescing, all driven with ``asyncio.run`` (no
  pytest-asyncio);
- the TCP server/client/loadgen stack against the real realigner --
  the headline invariant: served output is byte-identical to the batch
  path.
"""

import asyncio
import json
import logging
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.samlite import format_read
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.realign.realigner import IndelRealigner
from repro.realign.site import PAPER_LIMITS
from repro.realign.targets import TargetCreatorConfig
from repro.serve.client import ServiceClient
from repro.serve.jobs import REGION_GAP, partition_jobs
from repro.serve.loadgen import run_loadgen
from repro.serve.metrics import latency_summary, percentile
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
)
from repro.serve.request import (
    DeadlineExceeded,
    ServeError,
    ServiceClosed,
    ServiceConfig,
    ServiceSaturated,
)
from repro.serve.server import RealignmentServer
from repro.serve.service import RealignmentService
from repro.workloads.generator import synthesize_site
from repro.workloads.serving import LoadProfile, synthesize_load_schedule


def _sample(lengths=None, seed=5):
    return simulate_sample(lengths or {"chrS": 4000}, seed=seed)


def _read(name, chrom, pos, length=4):
    cigar = Cigar.parse(f"{length}M") if chrom is not None else None
    return Read(name, chrom, pos, "A" * length,
                np.full(length, 30, np.uint8), cigar)


def _sites(n, seed=2019, complexity=0.5):
    rng = np.random.default_rng(seed)
    return [synthesize_site(rng, complexity=complexity, start=i * 2000)
            for i in range(n)]


# ---------------------------------------------------------------------
# pure pieces
# ---------------------------------------------------------------------
class TestProtocol:
    def test_round_trip(self):
        message = {"op": "ping", "id": 3, "sam": ["a\tb"]}
        assert decode_message(encode_message(message)) == message

    def test_frames_are_single_lines(self):
        frame = encode_message({"op": "stats", "id": 1})
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1

    def test_malformed_frames_raise(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{not json")
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")

    def test_error_response_statuses(self):
        response = error_response(7, "rejected", "full")
        assert response == {"id": 7, "ok": False, "status": "rejected",
                            "error": "full"}
        with pytest.raises(ValueError):
            error_response(7, "ok", "not a failure")
        with pytest.raises(ValueError):
            error_response(7, "weird", "unknown status")


def _raw_session(reference, data: bytes):
    """Send ``data`` to a fresh server on one connection, half-close it
    and return every reply frame until the server closes it."""

    async def scenario():
        server = RealignmentServer(reference)
        host, port = await server.start(port=0)
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_MESSAGE_BYTES)
            writer.write(data)
            writer.write_eof()
            replies = []
            while line := await reader.readline():
                replies.append(decode_message(line))
            writer.close()
            await writer.wait_closed()
        finally:
            await server.close()
        return replies

    return asyncio.run(scenario())


def _header(**fields) -> bytes:
    """One JSON line as written, ``sam`` and ``sam_bytes`` included."""
    return (json.dumps(fields, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


class TestWireFrames:
    """A ``realign`` frame is a JSON header announcing ``sam_bytes``,
    then that many bytes of the job's lines joined by newlines."""

    SAMPLE = _sample({"chrS": 2000}, seed=3)
    LINES = [format_read(read) for read in SAMPLE.reads[:8]]

    def test_the_body_is_the_joined_lines(self):
        frame = encode_message({"id": 1, "op": "realign", "tenant": "t",
                                "sam": self.LINES})
        body = "\n".join(self.LINES).encode()
        assert frame == _header(id=1, op="realign", sam_bytes=len(body),
                                tenant="t") + body

    def test_an_empty_job_round_trips(self):
        message = {"id": 1, "op": "realign", "tenant": "t", "sam": []}
        frame = encode_message(message)
        assert frame.endswith(b'"sam_bytes":0,"tenant":"t"}\n')
        assert decode_message(frame) == message
        replies = _raw_session(self.SAMPLE.reference, frame)
        assert [(r["id"], r["moved"], r["sites"]) for r in replies] == [
            (1, [], 0)]

    @pytest.mark.parametrize("bad", ["r\tx\nr\ty", "", 5, b"r\tx",
                                     "r\ud800"])
    def test_a_line_that_cannot_be_a_body_line_is_refused_unsent(self, bad):
        class Writer:
            written = []

            def write(self, data):
                self.written.append(data)

            async def drain(self):
                pass

        client = ServiceClient()
        client._writer = Writer()
        with pytest.raises(ProtocolError) as raised:
            asyncio.run(client.realign(self.LINES[:3] + [bad]
                                       + self.LINES[4:]))
        assert str(raised.value) == (
            "sam[3] is not a non-empty line of UTF-8 text")
        assert Writer.written == [] and client._pending == {}
        with pytest.raises(ProtocolError, match="list of lines"):
            encode_message({"op": "realign", "sam": "not-a-list"})

    @pytest.mark.parametrize("sam_bytes", [-1, True, "12",
                                           MAX_MESSAGE_BYTES + 1])
    def test_a_bad_sam_bytes_is_answered_once_then_closed(
            self, sam_bytes, caplog):
        data = (_header(id=1, op="realign", tenant="t", sam_bytes=sam_bytes)
                + b"x" * 12 + _header(id=2, op="ping"))
        with caplog.at_level(logging.DEBUG):
            replies = _raw_session(self.SAMPLE.reference, data)
        assert replies == [error_response(
            1, "error", "ProtocolError: sam_bytes must be an integer in "
            f"0..{MAX_MESSAGE_BYTES}")]
        assert [record.getMessage() for record in caplog.records
                if record.levelno >= logging.ERROR] == []

    def test_a_bad_header_still_has_its_body_read(self):
        body = "\n".join(self.LINES).encode()
        data = b"".join([
            _header(id=1, op="realign", tenant="t", deadline_s=-1,
                    sam_bytes=len(body)), body,
            _header(id=2, op="nonsense", sam_bytes=len(body)), body,
            _header(id=3, op="realign", tenant="t", sam=["r"],
                    sam_bytes=len(body)), body,
            _header(id=4, op="ping"),
        ])
        by_id = {reply["id"]: reply
                 for reply in _raw_session(self.SAMPLE.reference, data)}
        assert by_id[1]["error"] == (
            "ProtocolError: deadline_s must be a finite number > 0")
        assert by_id[2]["error"] == "unknown op 'nonsense'"
        assert by_id[3]["error"] == ("ProtocolError: 'sam' travels as the "
                                     "frame's body, not in its header")
        assert by_id[4] == {"id": 4, "ok": True, "status": "ok"}
        assert len(by_id) == 4

    def test_a_body_that_is_not_utf8_is_a_protocol_error(self):
        body = b"r0\t0\t\xff\xfe"
        frame = _header(id=1, op="realign", sam_bytes=len(body)) + body
        with pytest.raises(ProtocolError, match="sam body is not UTF-8"):
            decode_message(frame)
        replies = _raw_session(self.SAMPLE.reference,
                               frame + _header(id=2, op="ping"))
        assert [(r["id"], r["ok"]) for r in replies] == [(1, False),
                                                        (2, True)]
        assert replies[0]["error"].startswith(
            "ProtocolError: sam body is not UTF-8")

    def test_a_body_cut_short_by_eof_ends_the_connection_quietly(
            self, caplog):
        frame = encode_message({"id": 1, "op": "realign", "tenant": "t",
                                "sam": self.LINES})
        with caplog.at_level(logging.DEBUG):
            replies = _raw_session(self.SAMPLE.reference,
                                   _header(id=0, op="ping") + frame[:-10])
        assert replies == [{"id": 0, "ok": True, "status": "ok"}]
        assert [record.getMessage() for record in caplog.records
                if record.levelno >= logging.ERROR] == []
        with pytest.raises(ProtocolError, match="expected"):
            decode_message(frame[:-10])

    def test_a_json_sam_list_is_refused(self):
        data = _header(id=1, op="realign", tenant="t", sam=self.LINES)
        with pytest.raises(ProtocolError, match="not in its header"):
            decode_message(data)
        [reply] = _raw_session(self.SAMPLE.reference, data)
        assert reply == error_response(
            1, "error", "ProtocolError: 'sam' travels as the frame's body, "
            "not in its header")

    def test_a_half_closed_connection_gets_every_reply(self):
        """A peer that sends its requests and shuts its side still gets
        an answer to each: the server finishes what is in flight
        before it closes the connection."""
        sample = _sample({"chrS": 6000}, seed=2)  # builds sites
        lines = [format_read(read) for read in sample.reads]
        frames = b"".join(encode_message({
            "id": request_id, "op": "realign", "tenant": "t",
            "sam": lines}) for request_id in range(1, 5))
        replies = _raw_session(sample.reference,
                               frames + _header(id=5, op="ping"))
        assert sorted(reply["id"] for reply in replies) == [1, 2, 3, 4, 5]
        assert all(reply["ok"] for reply in replies)
        assert all(reply["sites"] > 0 for reply in replies
                   if reply["id"] != 5)


class TestPercentiles:
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(7)
        values = list(rng.exponential(1.0, size=101))
        for q in (0, 10, 50, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), abs=1e-12,
            )

    def test_summary_orders_percentiles(self):
        rng = np.random.default_rng(11)
        summary = latency_summary(list(rng.exponential(0.01, size=200)))
        assert (summary["p50_ms"] <= summary["p95_ms"]
                <= summary["p99_ms"] <= summary["max_ms"])
        assert summary["count"] == 200.0

    def test_degenerate_inputs(self):
        assert latency_summary([]) == {}
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestPartitionJobs:
    def test_every_index_exactly_once(self):
        sample = _sample({"chrS": 6000, "chrT": 3000})
        jobs = partition_jobs(sample.reads, sample.reference)
        indices = [i for job in jobs for i in job.indices]
        assert sorted(indices) == list(range(len(sample.reads)))
        assert len(indices) == len(set(indices))
        assert partition_jobs([]) == []

    def test_reads_keep_input_order_within_jobs(self):
        sample = _sample()
        for job in partition_jobs(sample.reads, sample.reference):
            assert list(job.indices) == sorted(job.indices)
            for index, read in zip(job.indices, job.reads):
                assert sample.reads[index] is read

    def test_gap_cuts_split_contigs(self):
        sample = _sample({"chrS": 4000})
        reads = list(sample.reads)
        # Clone the contig's reads far to the right: well past the
        # frontier gap, so they must land in a separate job on the
        # same contig.
        shifted = [replace(r, name=f"{r.name}/far", pos=r.pos + 20_000)
                   for r in reads if r.is_mapped]
        jobs = partition_jobs(reads + shifted, sample.reference)
        mapped_jobs = [j for j in jobs if j.chrom != "*"]
        assert len(mapped_jobs) >= 2
        spans = sorted((min(r.pos for r in j.reads),
                        max(r.end for r in j.reads))
                       for j in mapped_jobs)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start > end + REGION_GAP

    def test_cut_follows_the_running_frontier(self):
        # "long" ends at 300: a read more than the gap past "short" is
        # not a cut while it is within the gap of "long".
        long, short = _read("long", "1", 0, 300), _read("short", "1", 10)
        for name, pos, cut in (
            ("mid", short.end + REGION_GAP + 1, False),
            ("edge", long.end + REGION_GAP, False),
            ("far", long.end + REGION_GAP + 1, True),
        ):
            jobs = partition_jobs([long, short, _read(name, "1", pos)])
            assert [[r.name for r in job.reads] for job in jobs] == (
                [["long", "short"], [name]] if cut
                else [["long", "short", name]]
            )

    def test_contigs_follow_reference_rank_then_name_unmapped_last(self):
        ref = ReferenceGenome.from_dict({"2": "A" * 50, "1": "A" * 50})
        reads = [_read("a", "1", 5), _read("b", "2", 5), _read("c", "zz", 5),
                 _read("u", None, 0), _read("d", "2", 9)]
        jobs = partition_jobs(reads, ref)
        assert [job.chrom for job in jobs] == ["2", "1", "zz", "*"]
        assert [[r.name for r in job.reads] for job in jobs] == [
            ["b", "d"], ["a"], ["c"], ["u"]
        ]

    def test_input_order_does_not_decide_membership(self):
        sample = _sample({"chrS": 4000, "chrT": 3000})
        reads = list(sample.reads)
        reads += [replace(r, name=f"{r.name}/far", pos=r.pos + 20_000)
                  for r in reads if r.chrom == "chrS"]
        shuffled = [reads[i] for i in
                    np.random.default_rng(3).permutation(len(reads))]
        jobs = partition_jobs(shuffled, sample.reference)
        assert ([{r.name for r in job.reads} for job in jobs]
                == [{r.name for r in job.reads}
                    for job in partition_jobs(reads, sample.reference)])
        assert all(list(job.indices) == sorted(job.indices) for job in jobs)

    def test_cut_contig_realigns_exactly_as_the_whole_file(self):
        """The exactness the cut rule claims, on an input it cuts."""
        sample = simulate_sample(
            {"chrG": 24_000},
            SimulationProfile(coverage=25.0, indel_rate=1.5e-3), seed=11,
        )
        reads = [r for r in sample.reads
                 if not (r.is_mapped and r.end > 9_000 and r.pos < 13_400)]
        jobs = partition_jobs(reads, sample.reference)
        assert [job.chrom for job in jobs] == ["chrG", "chrG"]
        assert (min(r.pos for r in jobs[1].reads)
                > max(r.end for r in jobs[0].reads) + REGION_GAP)
        whole, report = IndelRealigner(
            sample.reference, engine=EngineConfig(workers=1)).realign(reads)

        def counts(r):
            return (r.targets_identified, r.sites_built,
                    r.reads_realigned, r.reads_moved)

        served = [None] * len(reads)
        parts = []
        for job in jobs:
            updated, part = IndelRealigner(sample.reference).realign(
                list(job.reads)
            )
            assert part.reads_moved > 0  # both sides have work to lose
            parts.append(counts(part))
            for index, read in zip(job.indices, updated):
                served[index] = read
        assert ([format_read(r) for r in served]
                == [format_read(r) for r in whole])
        assert tuple(map(sum, zip(*parts))) == counts(report)

    def test_region_gap_clears_what_the_default_realigner_reaches(self):
        """Fails when a default drifts without REGION_GAP being
        revisited (the bounds are the module docstring's)."""
        config = TargetCreatorConfig()
        assert REGION_GAP > 2 * config.flank + config.merge_distance
        assert (REGION_GAP
                > config.flank + PAPER_LIMITS.max_consensus_length // 2)

    def test_unmapped_reads_form_one_final_job(self):
        sample = _sample()
        reads = list(sample.reads)
        unmapped = replace(reads[0], name="lost", chrom=None, cigar=None,
                           pos=0)
        jobs = partition_jobs(reads + [unmapped], sample.reference)
        assert jobs[-1].chrom == "*"
        assert jobs[-1].indices == (len(reads),)


class TestConfigValues:
    """Every time field must be finite: a NaN deadline never expires."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, value):
        for field in ("default_deadline_s", "drain_timeout_s"):
            with pytest.raises(ValueError, match=field):
                ServiceConfig(**{field: value})
        for field in ("mean_interarrival_s", "deadline_s"):
            with pytest.raises(ValueError, match=field):
                LoadProfile(**{field: value})


class TestLoadSchedules:
    def test_same_seed_same_schedule(self):
        profile = LoadProfile(tenants=3, requests_per_tenant=5)
        first = synthesize_load_schedule(profile, num_jobs=4, seed=13)
        again = synthesize_load_schedule(profile, num_jobs=4, seed=13)
        assert first == again
        assert first != synthesize_load_schedule(profile, 4, seed=14)

    def test_adding_a_tenant_never_perturbs_existing_arrivals(self):
        small = LoadProfile(tenants=2, requests_per_tenant=4)
        large = LoadProfile(tenants=3, requests_per_tenant=4)
        def arrivals(profile, tenant):
            return [r.arrival_s
                    for r in synthesize_load_schedule(profile, 2, seed=3)
                    if r.tenant == tenant]
        for tenant in ("tenant0", "tenant1"):
            assert arrivals(small, tenant) == arrivals(large, tenant)

    def test_round_robin_covers_every_job(self):
        profile = LoadProfile(tenants=2, requests_per_tenant=4)
        schedule = synthesize_load_schedule(profile, num_jobs=5, seed=1)
        assert {r.job for r in schedule} == set(range(5))


# ---------------------------------------------------------------------
# the request plane against stub engines
# ---------------------------------------------------------------------
class _EchoEngine:
    """Returns the sites themselves as their results."""

    def __init__(self):
        self.calls = 0
        self.batch_sizes = []

    def run_sites(self, sites, telemetry=None):
        self.calls += 1
        self.batch_sizes.append(len(sites))
        return list(sites)


class _GateEngine(_EchoEngine):
    """Blocks inside run_sites until the test releases it."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def run_sites(self, sites, telemetry=None):
        self.entered.set()
        assert self.release.wait(20.0), "test never released the gate"
        return super().run_sites(sites, telemetry)


class _GateRealEngine(_GateEngine):
    """Gate that then runs the real inline engine (server-path tests)."""

    def __init__(self):
        super().__init__()
        self._inner = Engine(EngineConfig(workers=1))

    def run_sites(self, sites, telemetry=None):
        self.entered.set()
        assert self.release.wait(20.0), "test never released the gate"
        self.calls += 1
        self.batch_sizes.append(len(sites))
        return self._inner.run_sites(sites, telemetry)


class TestServiceRequestPlane:
    def test_concurrent_requests_coalesce_into_one_batch(self):
        engine = _EchoEngine()

        async def scenario():
            service = RealignmentService(engine)
            await service.start()
            results = await asyncio.gather(
                service.submit_sites(["a1", "a2"], tenant="a"),
                service.submit_sites(["b1"], tenant="b"),
                service.submit_sites(["c1", "c2", "c3"], tenant="c"),
            )
            await service.close()
            return results, service

        results, service = asyncio.run(scenario())
        assert results == [["a1", "a2"], ["b1"], ["c1", "c2", "c3"]]
        # gather's three submissions all enqueue before the batcher
        # wakes, so its one dispatch takes all three.
        assert engine.calls == 1, "three concurrent requests, one dispatch"
        assert engine.batch_sizes == [6]
        counters = service.counters
        assert counters["serve.requests_completed"] == 3
        assert counters["serve.sites_dispatched"] == 6
        assert counters["serve.coalesced_sites_peak"] == 6

    def test_batcher_takes_what_is_queued_and_waits_for_nothing(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(engine)
            await service.start()
            first = asyncio.create_task(
                service.submit_sites(["a1"], tenant="a")
            )
            # A job at an idle service leaves within a few loop turns:
            # no timer stands between the queue and the dispatch.
            for _ in range(10):
                await asyncio.sleep(0)
                if service.counters.get("serve.batches_dispatched"):
                    break
            assert service.counters.get("serve.batches_dispatched") == 1
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 10.0
            )
            # Admitted while the engine holds the idle job's dispatch:
            # both wait in the queue and leave together.
            held = [asyncio.create_task(service.submit_sites(sites,
                                                             tenant=t))
                    for sites, t in ((["b1", "b2"], "b"),
                                     (["c1", "c2", "c3"], "c"))]
            await asyncio.sleep(0.02)
            assert not any(task.done() for task in held)
            engine.release.set()
            results = await asyncio.gather(first, *held)
            await service.close()
            return results, service

        results, service = asyncio.run(scenario())
        assert results == [["a1"], ["b1", "b2"], ["c1", "c2", "c3"]]
        assert engine.batch_sizes == [1, 2 + 3]
        assert service.counters["serve.batches_dispatched"] == 2
        assert service.counters["serve.coalesced_sites_peak"] == 5

    def test_queued_jobs_still_meet_the_dispatch_checks(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(engine)
            await service.start()
            first = asyncio.create_task(
                service.submit_sites(["a1"], tenant="a")
            )
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 10.0
            )
            late = asyncio.create_task(
                service.submit_sites(["x1", "x2"], tenant="x",
                                     deadline_s=0.01)
            )
            gone = asyncio.create_task(
                service.submit_sites(["y1"], tenant="y")
            )
            live = asyncio.create_task(
                service.submit_sites(["z1", "z2", "z3"], tenant="z")
            )
            await asyncio.sleep(0.05)  # past ``late``'s deadline
            gone.cancel()
            engine.release.set()
            assert await first == ["a1"]
            assert await live == ["z1", "z2", "z3"]
            with pytest.raises(DeadlineExceeded, match="while queued"):
                await late
            with pytest.raises(asyncio.CancelledError):
                await gone
            await service.close()
            return service

        service = asyncio.run(scenario())
        # The expired and the cancelled job never reach the engine, and
        # both give their room back.
        assert engine.batch_sizes == [1, 3]
        assert service.counters["serve.requests_expired"] == 1
        assert service.counters["serve.sites_expired"] == 2
        assert service.counters["serve.requests_completed"] == 2
        assert service._outstanding == 0

    def test_reject_admission_raises_when_saturated(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(
                engine, ServiceConfig(max_queue_sites=4)
            )
            await service.start()
            first = asyncio.create_task(
                service.submit_sites(["s1", "s2", "s3"], tenant="big")
            )
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 10.0
            )
            with pytest.raises(ServiceSaturated) as info:
                await service.submit_sites(["t1", "t2"], tenant="late")
            engine.release.set()
            assert await first == ["s1", "s2", "s3"]
            # Room freed: the same submission is admitted now.
            assert await service.submit_sites(["t1", "t2"],
                                              tenant="late") == ["t1", "t2"]
            await service.close()
            return info.value, service

        error, service = asyncio.run(scenario())
        assert (error.requested, error.outstanding, error.limit,
                error.tenant) == (2, 3, 4, "late")
        assert service.counters["serve.requests_rejected"] == 1
        assert service.counters["serve.sites_rejected"] == 2

    def test_oversized_job_runs_alone(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(
                engine, ServiceConfig(max_queue_sites=2)
            )
            await service.start()
            # Larger than the cap, but nothing is outstanding: admitted.
            big = asyncio.create_task(
                service.submit_sites(["b1", "b2", "b3"], tenant="big")
            )
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 10.0
            )
            # While it runs, even one site is refused, and so is a
            # second oversized job.
            with pytest.raises(ServiceSaturated):
                await service.submit_sites(["s1"], tenant="small")
            with pytest.raises(ServiceSaturated):
                await service.submit_sites(["c1", "c2", "c3"], tenant="big")
            engine.release.set()
            assert await big == ["b1", "b2", "b3"]
            assert await service.submit_sites(["s1"],
                                              tenant="small") == ["s1"]
            await service.close()
            return service

        service = asyncio.run(scenario())
        assert service.counters["serve.requests_rejected"] == 2
        assert service.counters["serve.outstanding_peak"] == 3
        assert service._outstanding == 0

    def test_graceful_shutdown_drains_in_flight_jobs(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(engine)
            await service.start()
            first = asyncio.create_task(
                service.submit_sites(["a1"], tenant="a")
            )
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 10.0
            )
            second = asyncio.create_task(
                service.submit_sites(["b1", "b2"], tenant="b")
            )
            await asyncio.sleep(0)  # let the second job enqueue
            closer = asyncio.create_task(service.close(drain=True))
            await asyncio.sleep(0.02)
            engine.release.set()
            results = await asyncio.gather(first, second)
            await closer
            with pytest.raises(ServiceClosed):
                await service.submit_sites(["late"], tenant="c")
            return results, service

        results, service = asyncio.run(scenario())
        assert results == [["a1"], ["b1", "b2"]]
        assert service.counters["serve.requests_completed"] == 2
        assert service._outstanding == 0

    def test_empty_submission_completes_without_queueing(self):
        engine = _EchoEngine()

        async def scenario():
            service = RealignmentService(engine)
            await service.start()
            result = await service.submit_sites([], tenant="idle")
            await service.close()
            return result, service.snapshot()

        result, snapshot = asyncio.run(scenario())
        assert result == []
        assert engine.calls == 0
        assert snapshot.counters["serve.requests_empty"] == 1
        assert snapshot.counters["serve.requests_declined"] == 0
        assert snapshot.describe().startswith(
            "1 completed (1 without a site, 0 rejected, 0 expired)")

    def test_engine_failure_fails_the_batch_and_frees_room(self):
        class _BrokenEngine:
            def run_sites(self, sites, telemetry=None):
                raise RuntimeError("kernel exploded")

        async def scenario():
            service = RealignmentService(_BrokenEngine())
            await service.start()
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await service.submit_sites(["s1"], tenant="t")
            await service.close()
            return service

        service = asyncio.run(scenario())
        assert service.counters["serve.batches_failed"] == 1
        assert service._outstanding == 0

    def test_snapshot_reports_latency_and_saturation_fields(self):
        engine = _EchoEngine()

        async def scenario():
            service = RealignmentService(
                engine, ServiceConfig(max_queue_sites=8)
            )
            await service.start()
            await service.submit_sites(["s1", "s2"], tenant="t0")
            snapshot = service.snapshot()
            await service.close()
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot.latency["count"] == 1.0
        for key in ("p50_ms", "p95_ms", "p99_ms"):
            assert snapshot.latency[key] >= 0.0
        assert 0.0 <= snapshot.saturation <= 1.0
        assert snapshot.tenant_sites == {"t0": 2}
        assert snapshot.outstanding_sites == 0
        assert "serve.saturated_us" in snapshot.counters
        assert snapshot.describe()


# ---------------------------------------------------------------------
# the TCP stack against the real realigner
# ---------------------------------------------------------------------

#: ``deadline_s`` values a realign request is refused for, by request
#: id: JSON's NaN and Infinity (which ``json`` decodes), booleans,
#: numeric strings, an integer no float holds, and numbers <= 0.
BAD_DEADLINES = {8: float("nan"), 9: float("inf"), 10: float("-inf"),
                 11: True, 12: False, 13: "5", 14: "1e3", 15: 10 ** 400,
                 16: 0, 17: -1.5}


class TestServerByteIdentity:
    def test_single_request_round_trip_matches_batch_realigner(self):
        sample = _sample({"chrS": 4000}, seed=8)
        expected, _ = IndelRealigner(
            sample.reference, engine=EngineConfig(workers=1),
        ).realign(sample.reads)
        expected_lines = [format_read(r) for r in expected]

        async def scenario():
            server = RealignmentServer(sample.reference)
            host, port = await server.start(port=0)
            try:
                async with await ServiceClient.open(host, port) as client:
                    result = await client.realign(
                        [format_read(r) for r in sample.reads],
                        tenant="t0",
                    )
                    assert await client.ping()
                    stats = await client.stats()
            finally:
                await server.close()
            return result, stats

        result, stats = asyncio.run(scenario())
        assert result.sam == expected_lines
        assert result.latency_ms > 0.0
        assert stats["counters"]["serve.requests_completed"] >= 1

    def test_native_kernel_round_trip_matches_batch_realigner(self):
        """The compiled tier under coalesced dispatch, end to end.

        ``service.start()`` pre-warms the native backend before traffic
        and the request plane then routes every coalesced batch through
        ``kernel="native"``; the served SAM must be byte-identical to
        the batch realigner run with the same engine config. Runs with
        or without a compiled backend -- the fallback path is exact.
        """
        from repro.engine import EngineConfig

        sample = _sample({"chrS": 4000}, seed=8)
        expected, _ = IndelRealigner(
            sample.reference,
            engine=EngineConfig(workers=1, kernel="native"),
        ).realign(sample.reads)
        expected_lines = [format_read(r) for r in expected]

        async def scenario():
            server = RealignmentServer(
                sample.reference, engine=EngineConfig(kernel="native"),
            )
            host, port = await server.start(port=0)
            try:
                async with await ServiceClient.open(host, port) as client:
                    result = await client.realign(
                        [format_read(r) for r in sample.reads],
                        tenant="t-native",
                    )
                    stats = await client.stats()
            finally:
                await server.close()
            return result, stats

        result, stats = asyncio.run(scenario())
        assert result.sam == expected_lines
        assert stats["counters"]["serve.requests_completed"] >= 1

    def test_loadgen_reassembly_matches_batch_realigner(self):
        sample = _sample({"chrS": 4000, "chrT": 2500}, seed=9)
        expected, _ = IndelRealigner(
            sample.reference, engine=EngineConfig(workers=1),
        ).realign(sample.reads)
        expected_lines = [format_read(r) for r in expected]
        lines = [format_read(r) for r in sample.reads]

        async def scenario():
            server = RealignmentServer(sample.reference)
            host, port = await server.start(port=0)
            try:
                updated, report = await run_loadgen(
                    host, port, lines, sample.reads, sample.reference,
                    profile=LoadProfile(tenants=3, requests_per_tenant=2,
                                        mean_interarrival_s=0.001),
                    seed=4, time_scale=0.0,
                )
            finally:
                await server.close()
            return updated, report

        updated, report = asyncio.run(scenario())
        assert updated == expected_lines
        assert report.completed + report.sweep_requests >= report.jobs
        assert report.tenants == 3
        assert report.server["counters"]["serve.batches_dispatched"] >= 1
        if report.latency:
            assert (report.latency["p50_ms"] <= report.latency["p95_ms"]
                    <= report.latency["p99_ms"])

    def test_protocol_failures_keep_the_connection_alive(self):
        sample = _sample({"chrS": 2000}, seed=3)
        lines = [format_read(r) for r in sample.reads[:8]]

        async def scenario():
            server = RealignmentServer(sample.reference)
            host, port = await server.start(port=0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                writer.write(encode_message({"id": 1, "op": "nonsense"}))
                # Raw frames: the client encoder refuses both.
                writer.write(b'{"id":2,"op":"realign","sam":"not-a-list"}\n')
                writer.write(b'{"id":4,"op":"realign","tenant":"t"}\n')
                writer.write(encode_message({
                    "id": 5, "op": "realign",
                    "sam": lines[:5] + ["a\tb"] + lines[6:]}))
                for request_id, column, value in ((6, 2, "chrNope"),
                                                  (7, 3, "1995")):
                    fields = lines[5].split("\t")
                    fields[column] = value
                    writer.write(encode_message({
                        "id": request_id, "op": "realign",
                        "sam": lines[:5] + ["\t".join(fields)] + lines[6:]}))
                for request_id, deadline_s in BAD_DEADLINES.items():
                    writer.write(encode_message({
                        "id": request_id, "op": "realign", "sam": lines,
                        "deadline_s": deadline_s}))
                writer.write(encode_message({"id": 3, "op": "ping"}))
                await writer.drain()
                frames = [decode_message(await reader.readline())
                          for _ in range(8 + len(BAD_DEADLINES))]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()
            return frames

        frames = asyncio.run(scenario())
        by_id = {frame.get("id"): frame for frame in frames}
        assert by_id[None]["status"] == "error"  # unparseable line
        assert by_id[1]["status"] == "error"  # unknown op
        assert by_id[2]["status"] == "error"  # a JSON 'sam' is refused
        assert by_id[2]["error"] == ("ProtocolError: 'sam' travels as the "
                                     "frame's body, not in its header")
        assert by_id[4]["status"] == "error"  # a realign with no body
        assert by_id[4]["error"] == ("ProtocolError: realign sends its lines "
                                     "as the frame's body: the header "
                                     "needs 'sam_bytes'")
        assert by_id[5]["status"] == "error"
        assert by_id[5]["error"] == (
            "SamError: sam[5]: SAM line has 2 fields, expected >= 11"
        )
        assert by_id[6]["error"] == ("SamError: sam[5]: RNAME 'chrNope' is "
                                     "not a contig of the reference")
        assert by_id[7]["error"].startswith(
            "SamError: sam[5]: alignment chrS:1995-")
        assert by_id[7]["error"].endswith("runs past the contig end (2000)")
        for request_id in BAD_DEADLINES:
            assert by_id[request_id]["status"] == "error"
            assert by_id[request_id]["error"] == (
                "ProtocolError: deadline_s must be a finite number > 0")
        assert by_id[3]["ok"] is True  # connection survived it all

    def _indel_free_session(self):
        """One good INDEL-free job and four jobs with one bad line each,
        served; returns the good reply, each bad one's error, the
        ``stats`` counters and whether the server had the compiled
        check."""
        sample = _sample({"chrS": 4000}, seed=5)
        reads = [read for read in sample.reads if not read.has_indel]
        assert len(reads) < len(sample.reads)  # the filter took
        assert not IndelRealigner(sample.reference).realign(reads)[1] \
            .reads_moved
        lines = [format_read(read) for read in reads[:12]]
        fields = lines[5].split("\t")
        bad = {
            1: "a\tb",
            2: "\t".join(fields[:2] + ["chrNope"] + fields[3:]),
            3: "\t".join(fields[:9] + ["R" + fields[9][1:]] + fields[10:]),
            4: "\t".join(fields[:10] + [fields[10] + "I"]),
        }

        async def scenario():
            server = RealignmentServer(sample.reference)
            host, port = await server.start(port=0)
            try:
                async with await ServiceClient.open(host, port) as client:
                    ok = await client.realign(lines)
                    failed = {}
                    for request_id, line in bad.items():
                        with pytest.raises(ServeError) as error:
                            await client.realign(
                                lines[:5] + [line] + lines[6:])
                        failed[request_id] = str(error.value)
                    stats = await client.stats()
            finally:
                await server.close()
            return ok, failed, stats["counters"], server._check is not None

        ok, failed, counters, checked = asyncio.run(scenario())
        assert (ok.sam, ok.sites) == (lines, 0)
        assert failed == {
            1: "SamError: sam[5]: SAM line has 2 fields, expected >= 11",
            2: "SamError: sam[5]: RNAME 'chrNope' is not a contig of the "
               "reference",
            3: "SamError: sam[5]: invalid base 'R' at position 0 "
               "(expected one of ACGTN)",
            4: f"SamError: sam[5]: read {fields[0]!r}: "
               f"{len(fields[9]) + 1} quality scores for {len(fields[9])} "
               "bases",
        }
        assert counters["serve.requests_empty"] == 1
        assert counters["serve.requests_completed"] == 1
        return counters, checked, len(bad)

    def test_an_indel_free_job_is_checked_and_answered_without_a_site(self):
        """No CIGAR of the job carries an INDEL, so the server answers
        at once, after the same checks: a bad line fails with the
        message the full path gives, located ``sam[i]``. The compiled
        check declines each bad body, which the Python scan then
        locates; the good one it accepts, so it counts in
        ``serve.requests_empty`` and not in ``serve.requests_declined``."""
        counters, checked, bad = self._indel_free_session()
        assert counters["serve.requests_declined"] == (bad if checked
                                                       else 0)

    def test_without_the_compiled_tier_every_job_is_scanned_in_python(
            self, monkeypatch):
        """``REPRO_NATIVE=off``: no check, the same replies, and nothing
        counted as declined."""
        from repro.engine import native

        monkeypatch.setenv("REPRO_NATIVE", "off")
        native.reset_backend()
        try:
            counters, checked, _bad = self._indel_free_session()
        finally:
            native.reset_backend()
        assert not checked
        assert counters["serve.requests_declined"] == 0

    @pytest.mark.parametrize("seed", [2019, 2021])
    def test_every_region_job_gets_the_batch_realigners_output(self, seed):
        """The benchmark's served shape: 2 kb contigs at 30x, cut into
        region jobs. Gated (INDEL-free) or not, every job comes back
        as the batch realigner writes it."""
        sample = simulate_sample(
            {f"ctg{i:02d}": 2000 for i in range(32)},
            profile=SimulationProfile(coverage=30.0), seed=seed)
        realigner = IndelRealigner(sample.reference,
                                   engine=EngineConfig(workers=1))
        jobs = partition_jobs(sample.reads, sample.reference)
        expected = [[format_read(read) for read in
                     realigner.realign(job.reads)[0]] for job in jobs]
        gated = sum(not any(read.has_indel for read in job.reads)
                    for job in jobs)
        assert 0 < gated < len(jobs)

        async def scenario():
            server = RealignmentServer(sample.reference)
            host, port = await server.start(port=0)
            try:
                async with await ServiceClient.open(host, port) as client:
                    results = [await client.realign(
                        [format_read(read) for read in job.reads])
                        for job in jobs]
                    stats = await client.stats()
            finally:
                await server.close()
            return results, stats

        results, stats = asyncio.run(scenario())
        assert [result.sam for result in results] == expected
        assert stats["counters"]["serve.requests_empty"] == gated
        # the compiled check takes every job the simulator writes
        assert stats["counters"]["serve.requests_declined"] == 0

    def test_shutdown_while_a_handler_closes_logs_nothing(self, caplog):
        """A handler still awaiting its writer's close when the server
        goes down is cancelled there; that must not log a traceback."""
        sample = _sample({"chrS": 2000}, seed=3)
        lines = [format_read(r) for r in sample.reads]

        async def scenario():
            server = RealignmentServer(sample.reference)
            host, port = await server.start(port=0)
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_MESSAGE_BYTES)
            writer.write(encode_message({"id": 1, "op": "realign",
                                         "sam": lines}))
            await writer.drain()
            reply = decode_message(await reader.readline())
            writer.close()
            await server.close()
            return reply

        with caplog.at_level(logging.DEBUG):
            reply = asyncio.run(scenario())
        assert reply["ok"] is True
        assert [record.getMessage() for record in caplog.records
                if record.levelno >= logging.ERROR] == []

    def test_server_rejects_when_saturated(self):
        sample = _sample({"chrS": 6000}, seed=2)
        _targets, windows = IndelRealigner(sample.reference).build_sites(
            list(sample.reads)
        )
        assert windows, "test sample must produce at least one site"

        async def scenario():
            server = RealignmentServer(
                sample.reference,
                service_config=ServiceConfig(max_queue_sites=1),
            )
            # Swap in a gated engine so the one admitted site keeps the
            # queue full while the second request arrives.
            engine = _GateRealEngine()
            server.service.engine = engine
            host, port = await server.start(port=0)
            lines = [format_read(r) for r in sample.reads]
            try:
                async with await ServiceClient.open(host, port) as client:
                    first = asyncio.create_task(
                        client.realign(lines, tenant="a")
                    )
                    await asyncio.get_running_loop().run_in_executor(
                        None, engine.entered.wait, 10.0
                    )
                    with pytest.raises(ServiceSaturated):
                        await client.realign(lines, tenant="b")
                    engine.release.set()
                    await first
            finally:
                await server.close()

        asyncio.run(scenario())
