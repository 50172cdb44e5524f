"""The serving plane: request coalescing, backpressure, byte-identity.

Four layers under test:

- the pure pieces (wire protocol, percentile math, region-job
  partitioning, seeded load schedules, the virtual-time queue model) --
  deterministic, no sockets, exact expected values;
- the :class:`RealignmentService` request plane against stub engines --
  admission control, queue-mode parking, deadlines, graceful drain,
  coalescing, all driven with ``asyncio.run`` (no pytest-asyncio);
- the TCP server/client/loadgen stack against the real realigner --
  the headline invariant: served output is byte-identical to the batch
  path;
- chaos composition -- ``REPRO_WORKER_FAULT_RATE`` worker faults under
  live serving traffic still produce kernel-exact results.
"""

import asyncio
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig, StreamingEngine
from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.samlite import format_read
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.realign.realigner import IndelRealigner
from repro.realign.site import PAPER_LIMITS
from repro.realign.targets import TargetCreatorConfig
from repro.resilience.workers import WorkerRecovery
from repro.serve.client import ServiceClient
from repro.serve.jobs import REGION_GAP, partition_jobs
from repro.serve.loadgen import run_loadgen, simulate_load
from repro.serve.metrics import latency_summary, percentile
from repro.serve.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
)
from repro.serve.request import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceConfig,
    ServiceSaturated,
)
from repro.serve.server import RealignmentServer
from repro.serve.service import RealignmentService
from repro.workloads.generator import synthesize_site
from repro.workloads.serving import (
    LoadProfile,
    apply_preemption_replay,
    synthesize_load_schedule,
)


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
        whole, report = IndelRealigner(sample.reference).realign(reads)

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

    def test_preemption_replay_is_deterministic_and_tagged(self):
        profile = LoadProfile(tenants=4, requests_per_tenant=6,
                              preempt_rate=0.9, restart_delay_s=0.02)
        schedule = synthesize_load_schedule(profile, 3, seed=5)
        replayed, hit = apply_preemption_replay(schedule, profile, seed=5)
        again, hit2 = apply_preemption_replay(schedule, profile, seed=5)
        assert (replayed, hit) == (again, hit2)
        assert hit >= 1
        retries = [r for r in replayed if r.is_retry]
        assert retries, "a 90% preemption wave must delay some requests"
        # The replay only shifts times: the (tenant, job) workload is
        # preserved, untouched requests appear verbatim, and every
        # retry fires at or after its instance's reclaim + restart.
        assert (sorted((r.tenant, r.job) for r in replayed)
                == sorted((r.tenant, r.job) for r in schedule))
        originals = set((r.tenant, r.job, r.arrival_s) for r in schedule)
        for request in replayed:
            if not request.is_retry:
                assert (request.tenant, request.job,
                        request.arrival_s) in originals
        cut_plus_delay = {}
        for retry in retries:
            instance = retry.retry_of_instance
            cut_plus_delay.setdefault(instance, retry.arrival_s)
            cut_plus_delay[instance] = min(cut_plus_delay[instance],
                                           retry.arrival_s)
        for retry in retries:
            assert retry.arrival_s >= cut_plus_delay[retry.retry_of_instance]

    def test_zero_rate_is_identity(self):
        profile = LoadProfile(tenants=2, requests_per_tenant=2)
        schedule = synthesize_load_schedule(profile, 2, seed=0)
        assert apply_preemption_replay(schedule, profile, 0) == (schedule, 0)


class TestSimulateLoad:
    def test_matches_hand_computed_fifo_model(self):
        profile = LoadProfile(tenants=2, requests_per_tenant=3,
                              mean_interarrival_s=0.004)
        job_sites = [3, 1]
        per_site, overhead = 0.002, 0.001
        report = simulate_load(profile, job_sites, seed=21,
                               per_site_s=per_site, overhead_s=overhead)
        # Replay the same schedule through the documented arithmetic.
        schedule = synthesize_load_schedule(profile, len(job_sites), 21)
        free_at, expected = 0.0, []
        for request in schedule:
            service = overhead + job_sites[request.job] * per_site
            completion = max(request.arrival_s, free_at) + service
            free_at = completion
            expected.append(completion - request.arrival_s)
        assert report.completed == len(schedule)
        assert report.latency == latency_summary(expected)
        assert report.wall_s == free_at

    def test_identical_across_runs(self):
        profile = LoadProfile(tenants=3, requests_per_tenant=8,
                              mean_interarrival_s=0.002)
        first = simulate_load(profile, [4, 2, 1], seed=9)
        again = simulate_load(profile, [4, 2, 1], seed=9)
        assert first.to_dict() == again.to_dict()
        assert (first.latency["p50_ms"] <= first.latency["p95_ms"]
                <= first.latency["p99_ms"])

    def test_tight_deadlines_expire_instead_of_serving(self):
        profile = LoadProfile(tenants=1, requests_per_tenant=10,
                              mean_interarrival_s=0.0001,
                              deadline_s=0.012)
        report = simulate_load(profile, [10], seed=3,
                               per_site_s=0.001, overhead_s=0.001)
        assert report.expired > 0
        assert report.completed + report.expired == report.requests


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
        self._inner = Engine(EngineConfig())

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
            service = RealignmentService(engine, ServiceConfig(
                coalesce_sites=64, coalesce_wait_ms=50.0,
            ))
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
        assert engine.calls == 1, "three concurrent requests, one dispatch"
        assert engine.batch_sizes == [6]
        counters = service.counters
        assert counters["serve.requests_completed"] == 3
        assert counters["serve.sites_dispatched"] == 6
        assert counters["serve.coalesced_sites_peak"] == 6

    def test_reject_admission_raises_when_saturated(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(engine, ServiceConfig(
                max_queue_sites=4, coalesce_sites=1, coalesce_wait_ms=0.0,
            ))
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

    def test_tenant_cap_rejects_hog_but_admits_others(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(engine, ServiceConfig(
                max_queue_sites=100, max_tenant_sites=3,
                coalesce_sites=1, coalesce_wait_ms=0.0,
            ))
            await service.start()
            first = asyncio.create_task(
                service.submit_sites(["h1", "h2", "h3"], tenant="hog")
            )
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 10.0
            )
            with pytest.raises(ServiceSaturated):
                await service.submit_sites(["h4"], tenant="hog")
            other = asyncio.create_task(
                service.submit_sites(["o1"], tenant="other")
            )
            engine.release.set()
            results = await asyncio.gather(first, other)
            await service.close()
            return results

        assert asyncio.run(scenario()) == [["h1", "h2", "h3"], ["o1"]]

    def test_queue_admission_parks_until_room_frees(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(engine, ServiceConfig(
                max_queue_sites=2, admission="queue",
                coalesce_sites=1, coalesce_wait_ms=0.0,
            ))
            await service.start()
            first = asyncio.create_task(
                service.submit_sites(["a1", "a2"], tenant="a")
            )
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 10.0
            )
            parked = asyncio.create_task(
                service.submit_sites(["b1", "b2"], tenant="b")
            )
            await asyncio.sleep(0.05)
            assert not parked.done(), "second request should be parked"
            engine.release.set()
            results = await asyncio.gather(first, parked)
            await service.close()
            return results, service

        results, service = asyncio.run(scenario())
        assert results == [["a1", "a2"], ["b1", "b2"]]
        assert service.counters["serve.admission_wait_us"] > 0

    def test_queue_admission_expires_at_the_deadline(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(engine, ServiceConfig(
                max_queue_sites=2, admission="queue",
                coalesce_sites=1, coalesce_wait_ms=0.0,
            ))
            await service.start()
            first = asyncio.create_task(
                service.submit_sites(["a1", "a2"], tenant="a")
            )
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 10.0
            )
            with pytest.raises(DeadlineExceeded):
                await service.submit_sites(["b1"], tenant="b",
                                           deadline_s=0.05)
            engine.release.set()
            await first
            await service.close()
            return service

        service = asyncio.run(scenario())
        assert service.counters["serve.requests_expired"] == 1

    def test_graceful_shutdown_drains_in_flight_jobs(self):
        engine = _GateEngine()

        async def scenario():
            service = RealignmentService(engine, ServiceConfig(
                coalesce_sites=1, coalesce_wait_ms=0.0,
            ))
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
            return result

        assert asyncio.run(scenario()) == []
        assert engine.calls == 0

    def test_engine_failure_fails_the_batch_and_frees_room(self):
        class _BrokenEngine:
            def run_sites(self, sites, telemetry=None):
                raise RuntimeError("kernel exploded")

        async def scenario():
            service = RealignmentService(_BrokenEngine(), ServiceConfig(
                coalesce_sites=1, coalesce_wait_ms=0.0,
            ))
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
            service = RealignmentService(engine, ServiceConfig(
                max_queue_sites=8, coalesce_sites=1, coalesce_wait_ms=0.0,
            ))
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
class TestServerByteIdentity:
    def test_single_request_round_trip_matches_batch_realigner(self):
        sample = _sample({"chrS": 4000}, seed=8)
        expected, _ = IndelRealigner(sample.reference).realign(sample.reads)
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
            sample.reference, engine=EngineConfig(kernel="native"),
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
        expected, _ = IndelRealigner(sample.reference).realign(sample.reads)
        expected_lines = [format_read(r) for r in expected]

        async def scenario():
            server = RealignmentServer(sample.reference)
            host, port = await server.start(port=0)
            try:
                updated, report = await run_loadgen(
                    host, port, sample.reads, sample.reference,
                    profile=LoadProfile(tenants=3, requests_per_tenant=2,
                                        mean_interarrival_s=0.001),
                    seed=4, time_scale=0.0,
                )
            finally:
                await server.close()
            return updated, report

        updated, report = asyncio.run(scenario())
        assert [format_read(r) for r in updated] == expected_lines
        assert report.completed + report.sweep_requests >= report.jobs
        assert report.tenants == 3
        assert report.server["counters"]["serve.batches_dispatched"] >= 1
        if report.latency:
            assert (report.latency["p50_ms"] <= report.latency["p95_ms"]
                    <= report.latency["p99_ms"])

    def test_protocol_failures_keep_the_connection_alive(self):
        sample = _sample({"chrS": 2000}, seed=3)

        async def scenario():
            server = RealignmentServer(sample.reference)
            host, port = await server.start(port=0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                writer.write(encode_message({"id": 1, "op": "nonsense"}))
                writer.write(encode_message({"id": 2, "op": "realign",
                                             "sam": "not-a-list"}))
                writer.write(encode_message({"id": 3, "op": "ping"}))
                await writer.drain()
                frames = [decode_message(await reader.readline())
                          for _ in range(4)]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()
            return frames

        frames = asyncio.run(scenario())
        by_id = {frame.get("id"): frame for frame in frames}
        assert by_id[None]["status"] == "error"  # unparseable line
        assert by_id[1]["status"] == "error"  # unknown op
        assert by_id[2]["status"] == "error"  # malformed realign
        assert by_id[3]["ok"] is True  # connection survived it all

    def test_server_rejects_when_saturated(self):
        sample = _sample({"chrS": 6000}, seed=2)
        _targets, windows = IndelRealigner(sample.reference).build_sites(
            list(sample.reads)
        )
        assert windows, "test sample must produce at least one site"

        async def scenario():
            server = RealignmentServer(
                sample.reference,
                service_config=ServiceConfig(max_queue_sites=1,
                                             coalesce_sites=1,
                                             coalesce_wait_ms=0.0),
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

    def test_canary_passes_on_a_healthy_deployment(self):
        sample = _sample({"chrS": 2000}, seed=2)

        async def scenario():
            server = RealignmentServer(sample.reference)
            await server.start(port=0)
            try:
                verdict = await server.run_canary()
                async with await ServiceClient.open(
                    *await _bound_address(server)
                ) as client:
                    stats = await client.stats()
            finally:
                await server.close()
            return verdict, stats

        verdict, stats = asyncio.run(scenario())
        assert verdict["ok"] is True
        assert verdict["reads_moved"] > 0
        assert verdict["mismatch_after"] <= verdict["mismatch_before"]
        assert stats["canary"]["ok"] is True


async def _bound_address(server):
    sockname = server._server.sockets[0].getsockname()
    return sockname[0], sockname[1]


# ---------------------------------------------------------------------
# chaos composition: worker faults under live serving traffic
# ---------------------------------------------------------------------
class TestServeChaos:
    def test_worker_faults_under_serving_traffic_stay_exact(self,
                                                            monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_FAULT_RATE", "0.3")
        # Seed 3 faults every run's chunk 0 on attempt 0 (worker-error,
        # clean retry). Dispatch chunk IDs restart at 0 per engine call,
        # so a seed whose faults live on higher chunk IDs would never
        # inject through the service's small coalesced batches.
        monkeypatch.setenv("REPRO_CHAOS_SEED", "3")
        sites = _sites(10)
        serial = Engine(EngineConfig()).run_sites(sites)
        config = EngineConfig(workers=2, batch=2)
        engine = StreamingEngine(
            config, queue_depth=2,
            recovery=WorkerRecovery.from_env(),
        )

        async def scenario():
            service = RealignmentService(engine, ServiceConfig(
                coalesce_sites=4, coalesce_wait_ms=1.0,
            ))
            await service.start()
            results = await asyncio.gather(*(
                service.submit_sites(sites[i:i + 2], tenant=f"t{i % 3}")
                for i in range(0, len(sites), 2)
            ))
            snapshot = service.snapshot()
            await service.close()
            return results, snapshot

        try:
            results, snapshot = asyncio.run(scenario())
        finally:
            engine.close()
        flat = [result for slice_ in results for result in slice_]
        assert len(flat) == len(sites)
        for mine, reference in zip(flat, serial):
            assert mine.same_outputs(reference)
        injected = sum(value for name, value in snapshot.counters.items()
                       if name.startswith("worker.injected."))
        assert injected > 0, "chaos rate 0.3 over 10 sites must inject"
