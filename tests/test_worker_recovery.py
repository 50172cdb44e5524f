"""Tests for host data-plane fault tolerance (resilience.workers).

The contract under test mirrors the accelerator plane's: under any
seeded schedule of unit faults -- delay, error -- the engines complete
and their output is byte-identical to a fault-free run, with every
recovery action visible in telemetry.
"""

import io
from dataclasses import replace

import pytest

from repro.engine import Engine, EngineConfig
from repro.resilience.workers import (
    ForcedWorkerFault,
    RecoveryEvent,
    WorkerFaultKind,
    WorkerFaultPlan,
    WorkerRecovery,
    record_recovery_spans,
)
from repro.telemetry import CAT_RECOVERY, Telemetry
from tests.test_stream import _sites


def _serial_results(sites):
    return Engine(EngineConfig(workers=1, batch=2)).run_sites(sites)


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.same_outputs(b)


class TestWorkerFaultPlan:
    def test_draws_are_order_independent(self):
        plan = WorkerFaultPlan.chaos(seed=5, rate=0.6)
        keys = [(chunk, lo, attempt) for chunk in range(4)
                for lo in (0, 2) for attempt in range(3)]
        forward = {key: plan.chunk_outcome(*key) for key in keys}
        backward = {key: plan.chunk_outcome(*key)
                    for key in reversed(keys)}
        assert forward == backward
        # And replays identically from a fresh plan with the same seed.
        replay = WorkerFaultPlan.chaos(seed=5, rate=0.6)
        assert {k: replay.chunk_outcome(*k) for k in keys} == forward

    def test_none_plan_never_faults(self):
        plan = WorkerFaultPlan.none()
        assert plan.is_fault_free
        assert all(plan.chunk_outcome(c, 0, a) is None
                   for c in range(8) for a in range(4))

    def test_chaos_rate_splits_over_kinds(self):
        plan = WorkerFaultPlan.chaos(seed=1, rate=1.0)
        outcomes = [plan.chunk_outcome(chunk, 0, 0) for chunk in range(64)]
        kinds = {event.kind for event in outcomes if event is not None}
        # rate=1.0 means every dispatch faults, across both kinds.
        assert all(event is not None for event in outcomes)
        assert kinds == set(WorkerFaultKind)

    def test_scripted_faults_strike_exactly_once(self):
        plan = WorkerFaultPlan.scripted(
            ForcedWorkerFault(chunk=2, attempt=1,
                              kind=WorkerFaultKind.ERROR),
        )
        hit = plan.chunk_outcome(2, 0, 1)
        assert hit is not None and hit.kind is WorkerFaultKind.ERROR
        assert plan.chunk_outcome(2, 0, 0) is None
        assert plan.chunk_outcome(2, 0, 2) is None
        assert plan.chunk_outcome(1, 0, 1) is None
        assert plan.chunk_outcome(2, 1, 1) is None  # bisected half differs

    def test_magnitudes_are_deterministic_and_bounded(self):
        plan = WorkerFaultPlan(seed=9, delay_rate=1.0,
                               delay_range=(0.01, 0.02))
        events = [plan.chunk_outcome(chunk, 0, 0) for chunk in range(16)]
        assert all(e.kind is WorkerFaultKind.DELAY for e in events)
        assert all(0.01 <= e.magnitude <= 0.02 for e in events)
        replay = WorkerFaultPlan(seed=9, delay_rate=1.0,
                                 delay_range=(0.01, 0.02))
        assert [replay.chunk_outcome(c, 0, 0).magnitude
                for c in range(16)] == [e.magnitude for e in events]

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerFaultPlan(error_rate=1.5)
        with pytest.raises(ValueError):
            WorkerFaultPlan(delay_rate=0.6, error_rate=0.6)
        with pytest.raises(ValueError):
            WorkerFaultPlan(delay_range=(0.5, 0.1))
        with pytest.raises(ValueError):
            WorkerFaultPlan.chaos(seed=0, rate=2.0)


class TestWorkerRecoveryConfig:
    def test_from_env_without_vars_is_the_defaults(self):
        assert WorkerRecovery.from_env(env={}) == WorkerRecovery()
        seeded = WorkerRecovery.from_env(env={"REPRO_CHAOS_SEED": "7"})
        assert seeded.plan.seed == 7
        assert seeded.plan.is_fault_free
        assert replace(seeded, plan=WorkerFaultPlan.none()) == WorkerRecovery()

    @pytest.mark.parametrize("name,value", [
        ("REPRO_WORKER_FAULT_RATE", "lots"),
        ("REPRO_WORKER_FAULT_RATE", "1.5"),
        ("REPRO_CHAOS_SEED", "x"),
    ])
    def test_from_env_rejects_bad_numbers_by_name(self, name, value):
        with pytest.raises(ValueError) as caught:
            WorkerRecovery.from_env(env={name: value})
        message = str(caught.value)
        assert name in message and repr(value) in message
        assert "\n" not in message

    def test_from_env_builds_chaos_plan(self):
        recovery = WorkerRecovery.from_env(env={
            "REPRO_WORKER_FAULT_RATE": "0.2",
            "REPRO_CHAOS_SEED": "11",
        })
        assert recovery.plan.seed == 11
        assert recovery.plan.worker_fault_rate == pytest.approx(0.2)
        assert recovery.plan.delay_rate == recovery.plan.error_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerRecovery(cycle_seconds=0.0)
        with pytest.raises(ValueError):
            WorkerRecovery(cycle_seconds=-1.0)

    def test_backoff_seconds_scales_cycle_schedule(self):
        policy = WorkerRecovery().retry
        plan = WorkerFaultPlan.none()
        first = policy.backoff_seconds(0, plan, target=3)
        assert 0.0 < first < 0.001  # ~256 us at the default scale
        assert policy.backoff_seconds(0, plan, target=3,
                                      cycle_seconds=2e-6) == first * 2
        with pytest.raises(ValueError):
            policy.backoff_seconds(0, plan, target=3, cycle_seconds=0.0)


class TestRecoverySpans:
    def test_events_become_recovery_spans_and_counter(self):
        telemetry = Telemetry()
        events = [
            RecoveryEvent(name="error chunk 3", start=10.0, end=10.5,
                          chunk=3, attempt=0),
            RecoveryEvent(name="bisect chunk 3", start=10.5, end=10.6),
        ]
        record_recovery_spans(telemetry, events, origin=10.0)
        spans = telemetry.spans_in(CAT_RECOVERY)
        assert [span.name for span in spans] == ["error chunk 3",
                                                 "bisect chunk 3"]
        assert all(span.track == "worker recovery" for span in spans)
        assert spans[0].start == 0.0 and spans[0].end == 0.5
        assert telemetry.counters.flat()["worker.recovery_spans"] == 2

    def test_no_telemetry_or_events_is_a_noop(self):
        record_recovery_spans(None, [RecoveryEvent("x", 0.0, 1.0)])
        telemetry = Telemetry()
        record_recovery_spans(telemetry, [])
        assert telemetry.spans == []


def _recovery(*faults, **plan_overrides):
    return WorkerRecovery(
        plan=WorkerFaultPlan.scripted(*faults, **plan_overrides),
    )


#: One row since ``ShardPlane`` became this engine under another name;
#: still a parametrization so the id keeps its ``[Engine]``.
_barrier_planes = pytest.mark.parametrize("make_plane", [
    lambda config, recovery: Engine(config, recovery=recovery),
], ids=["Engine"])


class TestEngineRecovery:
    def test_fault_free_recovery_is_byte_identical(self):
        sites = _sites(8, seed=23)
        want = _serial_results(sites)
        with Engine(EngineConfig(workers=2, batch=2),
                    recovery=_recovery()) as engine:
            _assert_identical(engine.run_sites(sites), want)
            assert engine.recovery_counters == {}

    @_barrier_planes
    def test_injected_error_is_retried(self, make_plane):
        sites = _sites(6, seed=37)
        want = _serial_results(sites)
        recovery = _recovery(
            ForcedWorkerFault(chunk=0, attempt=0,
                              kind=WorkerFaultKind.ERROR),
        )
        with make_plane(EngineConfig(workers=2, batch=2),
                        recovery) as engine:
            _assert_identical(engine.run_sites(sites), want)
            counters = engine.recovery_counters
        assert counters["worker.errors"] == 1
        assert counters["worker.retries"] >= 1

    def test_poison_chunk_bisects_then_quarantines_inline(self):
        sites = _sites(4, seed=43)
        want = _serial_results(sites)
        attempts = WorkerRecovery().retry.max_attempts
        # Error every attempt at offsets 0 and 1 of chunk 0: the whole
        # chunk (lo=0) exhausts and bisects; each 1-site half (lo=0 and
        # lo=1) exhausts again and must quarantine inline.
        faults = [
            ForcedWorkerFault(chunk=0, lo=lo, attempt=attempt,
                              kind=WorkerFaultKind.ERROR)
            for lo in (0, 1)
            for attempt in range(attempts)
        ]
        recovery = _recovery(*faults)
        with Engine(EngineConfig(workers=2, batch=2),
                    recovery=recovery) as engine:
            _assert_identical(engine.run_sites(sites), want)
            counters = engine.recovery_counters
        assert counters["worker.bisects"] >= 1
        assert counters["worker.quarantined_sites"] == 2
        # lo=0 faults strike the whole chunk AND its first half; lo=1
        # faults strike the second half: 3 exhausted attempt budgets.
        assert counters["worker.errors"] == 3 * attempts

    def test_bisect_isolates_poison_to_one_site(self):
        sites = _sites(4, seed=47)
        want = _serial_results(sites)
        attempts = WorkerRecovery().retry.max_attempts
        # Fault every attempt at (chunk 1, lo=0). The whole chunk
        # exhausts and bisects; the lo=0 half inherits the same fault
        # key and quarantines, but the lo=1 half -- never faulted --
        # completes on its first attempt: exactly one site is quarantined.
        faults = [
            ForcedWorkerFault(chunk=1, attempt=attempt,
                              kind=WorkerFaultKind.ERROR)
            for attempt in range(attempts)
        ]
        with Engine(EngineConfig(workers=2, batch=2),
                    recovery=_recovery(*faults)) as engine:
            _assert_identical(engine.run_sites(sites), want)
            counters = engine.recovery_counters
        assert counters["worker.bisects"] == 1
        assert counters["worker.quarantined_sites"] == 1
        assert counters["worker.errors"] == 2 * attempts

    def test_genuine_error_reaches_the_caller(self, monkeypatch):
        # A real (uninjected) failure rides the same ladder -- retry,
        # bisect, quarantine -- and the quarantined run raises it, with
        # its own type and message, out of run_sites.
        from repro.engine import parallel

        sites = _sites(4, seed=71)
        poison = sites[3]
        real = parallel._realign_chunk

        def flaky(chunk_id, part, config):
            if any(site is poison for site in part):
                raise KeyError("poison site")
            return real(chunk_id, part, config)

        monkeypatch.setattr(parallel, "_realign_chunk", flaky)
        with Engine(EngineConfig(workers=2, batch=2),
                    recovery=_recovery()) as engine:
            with pytest.raises(KeyError, match="poison site"):
                engine.run_sites(sites)


class TestStreamingRecovery:
    def test_streamed_chaos_matches_barrier_and_serial_sam(self):
        # The acceptance run: both fault kinds, at the barrier's window
        # and the tightest one; SAM output byte-identical to fault-free
        # on each.
        from repro.genomics.samlite import write_sam
        from repro.genomics.simulate import SimulationProfile, simulate_sample
        from repro.realign.realigner import IndelRealigner

        sample = simulate_sample(
            {"chr22": 9_000},
            profile=SimulationProfile(coverage=16.0, indel_rate=1.5e-3),
            seed=7,
        )

        def sam_with(engine):
            reads, _report = IndelRealigner(
                sample.reference, engine=engine
            ).realign(sample.reads)
            sink = io.StringIO()
            write_sam(reads, sink, sample.reference)
            return sink.getvalue()

        want = sam_with(None)
        faults = (
            ForcedWorkerFault(chunk=0, attempt=0,
                              kind=WorkerFaultKind.ERROR),
            ForcedWorkerFault(chunk=2, attempt=0,
                              kind=WorkerFaultKind.DELAY),
        )
        config = EngineConfig(workers=2, batch=2)
        # The barrier: a window that holds every chunk of the sample.
        with Engine(config, queue_depth=len(sample.reads),
                    recovery=_recovery(*faults)) as engine:
            barrier_sam = sam_with(engine)
            barrier_counters = dict(engine.recovery_counters)
        with Engine(config, queue_depth=1,
                    recovery=_recovery(*faults)) as stream:
            reads, _ = IndelRealigner(sample.reference,
                                      engine=stream).realign(sample.reads)
            sink = io.StringIO()
            write_sam(reads, sink, sample.reference)
            stream_sam = sink.getvalue()
            stream_counters = dict(stream.recovery_counters)
        assert barrier_sam == want
        assert stream_sam == want
        for counters in (barrier_counters, stream_counters):
            injected = {name for name in counters
                        if name.startswith("worker.injected.")}
            assert injected == {
                "worker.injected.worker-error",
                "worker.injected.worker-delay",
            }
            assert counters["worker.retries"] >= 1

    def test_recovery_engine_works_across_runs(self):
        # The unit threads persist across runs; state from an earlier
        # run (same chunk ids!) must not contaminate the next.
        sites_a = _sites(6, seed=61)
        sites_b = _sites(6, seed=67)
        recovery = _recovery(
            ForcedWorkerFault(chunk=0, attempt=0,
                              kind=WorkerFaultKind.ERROR),
        )
        with Engine(EngineConfig(workers=2, batch=2),
                    queue_depth=1, recovery=recovery) as stream:
            _assert_identical(stream.run_sites(sites_a),
                              _serial_results(sites_a))
            _assert_identical(stream.run_sites(sites_b),
                              _serial_results(sites_b))


class TestEnvDrivenRecovery:
    def test_engine_picks_up_recovery_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_FAULT_RATE", "0.3")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "20")
        engine = Engine(EngineConfig(workers=2, batch=2))
        try:
            assert engine.recovery == WorkerRecovery.chaos(20, 0.3)
        finally:
            engine.close()

    @pytest.mark.parametrize("make_plane", [
        lambda: Engine(EngineConfig(workers=2, batch=2)),
    ], ids=["Engine"])
    def test_none_means_defaults(self, monkeypatch, make_plane):
        # recovery=None means "the defaults", never "off": every pooled
        # chunk runs under recovery, and fault-free it observes nothing.
        for name in ("REPRO_WORKER_FAULT_RATE", "REPRO_CHAOS_SEED"):
            monkeypatch.delenv(name, raising=False)
        sites = _sites(6, seed=41)
        with make_plane() as plane:
            assert plane.recovery == WorkerRecovery()
            _assert_identical(plane.run_sites(sites), _serial_results(sites))
            assert plane.recovery_counters == {}
            assert plane.recovery_events == []

