"""Unit tests for the fault-injection and fault-tolerance layer."""

import numpy as np
import pytest

from repro.core.host import HostPlanError, WatchdogBank
from repro.core.router import RoccCommandRouter, RouterError
from repro.core.scheduler import ScheduledTarget, schedule, schedule_async
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.hw.axi import (
    LossyMmioRegisterFile,
    check_response,
    crc8,
    protect_response,
)
from repro.hw.memory import PcieDmaModel
from repro.perf.fleet import FleetJob, plan_fleet, simulate_preemptions
from repro.resilience.faults import FaultKind, FaultPlan
from repro.resilience.policy import (
    HostWatchdog,
    QuarantinePolicy,
    ResilienceConfig,
    ResilienceError,
    RetryPolicy,
)
from repro.resilience.recovery import schedule_with_recovery
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


def simple_targets(computes, transfer=2):
    return [
        ScheduledTarget(index=i, transfer_cycles=transfer, compute_cycles=c)
        for i, c in enumerate(computes)
    ]


class TestFaultPlan:
    def test_draws_are_deterministic_and_order_independent(self):
        plan = FaultPlan.chaos(seed=11, rate=0.5)
        forward = [plan.attempt_outcome(u, t, 0)
                   for u in range(4) for t in range(8)]
        backward = [plan.attempt_outcome(u, t, 0)
                    for u in reversed(range(4)) for t in reversed(range(8))]
        assert forward == list(reversed(backward))

    def test_distinct_seeds_give_distinct_schedules(self):
        a = FaultPlan.chaos(seed=1, rate=0.5)
        b = FaultPlan.chaos(seed=2, rate=0.5)
        outcomes_a = [a.attempt_outcome(0, t, 0) for t in range(64)]
        outcomes_b = [b.attempt_outcome(0, t, 0) for t in range(64)]
        assert outcomes_a != outcomes_b

    def test_none_plan_is_fault_free(self):
        plan = FaultPlan.none()
        assert plan.is_fault_free
        assert plan.attempt_outcome(0, 0, 0) is None
        assert plan.dma_outcome(0, 0) is None
        assert plan.preemption_fraction(0) is None

    def test_chaos_zero_rate_is_fault_free(self):
        assert FaultPlan.chaos(seed=3, rate=0.0).is_fault_free

    def test_full_rate_always_faults(self):
        plan = FaultPlan(seed=5, unit_hang_rate=1.0)
        for target in range(16):
            event = plan.attempt_outcome(2, target, 0)
            assert event is not None and event.kind is FaultKind.UNIT_HANG

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(unit_hang_rate=1.2)
        with pytest.raises(ValueError):
            FaultPlan(unit_hang_rate=0.6, response_drop_rate=0.6)
        with pytest.raises(ValueError):
            FaultPlan(slowdown_range=(0.5, 2.0))
        with pytest.raises(ValueError):
            FaultPlan.chaos(seed=0, rate=1.5)

    def test_slowdown_magnitude_within_range(self):
        plan = FaultPlan(seed=9, unit_slowdown_rate=1.0,
                         slowdown_range=(3.0, 5.0))
        for target in range(16):
            event = plan.attempt_outcome(0, target, 0)
            assert event.kind is FaultKind.UNIT_SLOWDOWN
            assert 3.0 <= event.magnitude <= 5.0

    def test_preemption_fraction_interior(self):
        plan = FaultPlan(seed=4, preemption_rate=1.0)
        for instance in range(16):
            fraction = plan.preemption_fraction(instance)
            assert 0.0 < fraction < 1.0

    def test_chaos_rates_scale_with_rate(self):
        lo = FaultPlan.chaos(seed=0, rate=0.1)
        hi = FaultPlan.chaos(seed=0, rate=0.4)
        assert hi.unit_fault_rate == pytest.approx(4 * lo.unit_fault_rate)
        assert hi.dma_fault_rate == pytest.approx(4 * lo.dma_fault_rate)


class TestPolicies:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_cycles=100,
                             max_backoff_cycles=400, jitter_fraction=0.0)
        plan = FaultPlan.none()
        waits = [policy.backoff_cycles(a, plan, target=0) for a in range(5)]
        assert waits == [100, 200, 400, 400, 400]

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_backoff_cycles=1000,
                             max_backoff_cycles=1000, jitter_fraction=0.5)
        plan = FaultPlan(seed=21)
        waits = [policy.backoff_cycles(0, plan, target=t) for t in range(32)]
        assert all(500 <= w <= 1500 for w in waits)
        assert len(set(waits)) > 1  # jitter actually spreads retries
        assert waits == [policy.backoff_cycles(0, plan, target=t)
                        for t in range(32)]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            QuarantinePolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            HostWatchdog(multiplier=0.5)
        with pytest.raises(ValueError):
            ResilienceConfig(fallback_penalty=0.5)


class TestWatchdog:
    def test_deadline_scales_with_expected_work(self):
        watchdog = HostWatchdog(multiplier=4.0, slack_cycles=100)
        assert watchdog.deadline_cycles(1000) == 4100
        assert watchdog.deadline_cycles(0) == 100

    def test_bank_arm_expire_cycle(self):
        bank = WatchdogBank()
        bank.arm(3, deadline=500)
        bank.arm(5, deadline=200)
        assert bank.next_deadline() == 200
        assert bank.expired(300) == [5]
        bank.expire(5)
        assert bank.expirations == 1
        bank.disarm(3)
        assert bank.next_deadline() is None
        with pytest.raises(HostPlanError):
            bank.expire(3)

    def test_double_arm_rejected(self):
        bank = WatchdogBank()
        bank.arm(0, deadline=10)
        with pytest.raises(HostPlanError):
            bank.arm(0, deadline=20)


class TestRecoveryScheduler:
    def test_fault_free_plan_matches_schedule_async(self):
        targets = simple_targets([50, 400, 90, 10, 220, 75], transfer=6)
        base = schedule_async(targets, 3)
        resilient = schedule_with_recovery(
            targets, 3, ResilienceConfig(plan=FaultPlan.none())
        )
        assert resilient.makespan == base.makespan
        assert resilient.spans == base.spans
        assert resilient.transfer_cycles_total == base.transfer_cycles_total
        assert all(mode == "hw" for mode in resilient.completions.values())

    def test_schedule_dispatch_routes_resilience(self):
        targets = simple_targets([50, 60])
        result = schedule(targets, 2, "async",
                          resilience=ResilienceConfig(plan=FaultPlan.none()))
        assert result.makespan == schedule_async(targets, 2).makespan
        with pytest.raises(ValueError):
            schedule(targets, 2, "sync",
                     resilience=ResilienceConfig(plan=FaultPlan.none()))

    def test_hang_burns_watchdog_then_retries(self):
        # One target, hang on every attempt: retries exhaust, then the
        # software fallback completes it.
        config = ResilienceConfig(
            plan=FaultPlan(seed=0, unit_hang_rate=1.0),
            retry=RetryPolicy(max_attempts=2),
            quarantine=QuarantinePolicy(failure_threshold=99),
        )
        result = schedule_with_recovery(simple_targets([100]), 2, config)
        assert result.completions == {0: "sw"}
        assert result.counters.fallbacks == 1
        assert result.counters.watchdog_expirations == 2
        assert len(result.spans) == 2  # both hardware attempts visible
        assert len(result.fallback_spans) == 1
        # The hang occupied the unit until the watchdog deadline.
        deadline = config.watchdog.deadline_cycles(100)
        assert all(s.duration == deadline for s in result.spans)

    def test_slowdown_within_watchdog_window_succeeds(self):
        config = ResilienceConfig(
            plan=FaultPlan(seed=0, unit_slowdown_rate=1.0,
                           slowdown_range=(2.0, 2.0)),
            watchdog=HostWatchdog(multiplier=4.0),
        )
        targets = simple_targets([100, 100])
        result = schedule_with_recovery(targets, 2, config)
        assert all(mode == "hw" for mode in result.completions.values())
        assert result.counters.retries == 0
        assert all(span.duration == 200 for span in result.spans)

    def test_extreme_slowdown_is_killed_as_hang(self):
        config = ResilienceConfig(
            plan=FaultPlan(seed=0, unit_slowdown_rate=1.0,
                           slowdown_range=(100.0, 100.0)),
            retry=RetryPolicy(max_attempts=1),
            watchdog=HostWatchdog(multiplier=2.0, slack_cycles=10),
        )
        result = schedule_with_recovery(simple_targets([50]), 1, config)
        assert result.completions == {0: "sw"}
        assert result.counters.watchdog_expirations == 1

    def test_corrupt_response_retries_without_watchdog_wait(self):
        config = ResilienceConfig(
            plan=FaultPlan(seed=0, response_corrupt_rate=1.0),
            retry=RetryPolicy(max_attempts=2),
            quarantine=QuarantinePolicy(failure_threshold=99),
        )
        result = schedule_with_recovery(simple_targets([100]), 1, config)
        assert result.completions == {0: "sw"}
        assert result.counters.watchdog_expirations == 0
        assert result.counters.count(FaultKind.RESPONSE_CORRUPT) == 2
        # Corrupt attempts only occupy the unit for the compute time.
        assert all(span.duration == 100 for span in result.spans)

    def test_units_quarantine_down_to_floor(self):
        config = ResilienceConfig(
            plan=FaultPlan(seed=0, unit_hang_rate=1.0),
            retry=RetryPolicy(max_attempts=8),
            quarantine=QuarantinePolicy(failure_threshold=2,
                                        min_active_units=1),
        )
        result = schedule_with_recovery(
            simple_targets([50] * 12), 4, config
        )
        # Everything hangs: three units quarantined, the floor unit kept.
        assert len(result.quarantined_units) == 3
        healthy = [h for h in result.unit_health if not h.quarantined]
        assert len(healthy) == 1
        assert all(mode == "sw" for mode in result.completions.values())

    def test_dma_faults_charge_channel_and_retry(self):
        config = ResilienceConfig(
            plan=FaultPlan(seed=0, dma_error_rate=1.0),
            retry=RetryPolicy(max_attempts=3),
        )
        result = schedule_with_recovery(
            simple_targets([100, 100], transfer=10), 2, config,
            dma_penalties=[(7, 99), (7, 99)],
        )
        # Transfers never succeed: no hardware spans, only fallbacks.
        assert result.spans == []
        assert result.transfer_cycles_total == 0
        assert result.dma_penalty_cycles == 2 * 3 * 7
        assert all(mode == "sw" for mode in result.completions.values())

    def test_fallback_disabled_raises_when_exhausted(self):
        config = ResilienceConfig(
            plan=FaultPlan(seed=0, unit_hang_rate=1.0),
            retry=RetryPolicy(max_attempts=1),
            software_fallback=False,
        )
        with pytest.raises(ResilienceError):
            schedule_with_recovery(simple_targets([10]), 1, config)

    def test_dma_penalties_must_parallel_targets(self):
        config = ResilienceConfig(plan=FaultPlan.none())
        with pytest.raises(ValueError):
            schedule_with_recovery(simple_targets([10, 10]), 1, config,
                                   dma_penalties=[(1, 1)])


class TestResponseIntegrity:
    def test_crc_roundtrip(self):
        for payload in (0, 1, 31, 255, 4096):
            assert check_response(protect_response(payload)) == payload

    def test_crc_rejects_bit_flips(self):
        word = protect_response(17)
        for bit in range(12):
            assert check_response(word ^ (1 << bit)) != 17

    def test_crc8_input_validation(self):
        with pytest.raises(ValueError):
            crc8(-1)
        with pytest.raises(ValueError):
            protect_response(-2)

    def test_lossy_mmio_drops_and_corrupts(self):
        fates = iter(["ok", "drop", "corrupt"])
        mmio = LossyMmioRegisterFile(injector=lambda payload: next(fates))
        mmio.push_response(5)
        mmio.push_response(6)  # dropped
        mmio.push_response(7)  # corrupted
        assert mmio.responses_dropped == 1
        assert mmio.responses_corrupted == 1
        assert check_response(mmio.poll_response()) == 5
        corrupted = mmio.poll_response()
        assert corrupted is not None and check_response(corrupted) is None
        assert mmio.poll_response() is None  # the drop never arrived

    def test_lossy_mmio_rejects_unknown_fate(self):
        mmio = LossyMmioRegisterFile(injector=lambda payload: "explode")
        with pytest.raises(ValueError):
            mmio.push_response(1)


class TestDmaFaultModel:
    def test_fault_latencies_ordered(self):
        dma = PcieDmaModel()
        num_bytes = 1 << 20
        ok = dma.faulted_transfer_seconds(num_bytes, "ok")
        error = dma.faulted_transfer_seconds(num_bytes, "error")
        timeout = dma.faulted_transfer_seconds(num_bytes, "timeout")
        assert ok == dma.streaming_seconds(num_bytes)
        assert 0 < error < ok + dma.setup_latency_s
        assert timeout == dma.timeout_s > error

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            PcieDmaModel().faulted_transfer_seconds(64, "melted")
        with pytest.raises(ValueError):
            PcieDmaModel(timeout_s=0.0)


class TestRouterQuarantine:
    def test_quarantined_unit_rejects_commands(self):
        from repro.core.isa import BufferId, ir_set_addr

        router = RoccCommandRouter(num_units=4)
        router.quarantine_unit(2)
        assert router.healthy_units() == [0, 1, 3]
        with pytest.raises(RouterError):
            router.dispatch(ir_set_addr(2, BufferId.READ_BASES, 0))
        router.release_unit(2)
        router.dispatch(ir_set_addr(2, BufferId.READ_BASES, 0))
        assert router.healthy_units() == [0, 1, 2, 3]

    def test_quarantine_tears_down_busy_state(self):
        router = RoccCommandRouter(num_units=2)
        router.units[1].busy = True
        router.quarantine_unit(1)
        assert not router.units[1].busy

    def test_quarantine_unknown_unit_rejected(self):
        with pytest.raises(RouterError):
            RoccCommandRouter(num_units=2).quarantine_unit(7)


class TestFleetPreemption:
    def jobs(self):
        return [FleetJob(f"chr{i}", 100.0 * (i + 1)) for i in range(6)]

    def test_no_preemption_is_identity(self):
        plan = plan_fleet(self.jobs(), 3)
        result = simulate_preemptions(plan, lambda instance: None)
        assert result.events == []
        assert result.rescheduled == []
        assert result.makespan_seconds == plan.makespan_seconds
        assert result.makespan_inflation == 1.0

    def test_single_preemption_reschedules_lost_jobs(self):
        plan = plan_fleet(self.jobs(), 3)
        result = simulate_preemptions(
            plan, lambda instance: 0.5 if instance == 0 else None,
            restart_overhead_s=30.0,
        )
        assert [e.instance for e in result.events] == [0]
        assert result.rescheduled  # something had to move
        assert result.makespan_seconds > plan.makespan_seconds
        # Each moved job pays the restart overhead exactly once.
        assert result.restart_overhead_seconds == pytest.approx(
            30.0 * len(result.rescheduled)
        )

    def test_whole_fleet_preempted_uses_replacement(self):
        plan = plan_fleet(self.jobs(), 2)
        result = simulate_preemptions(plan, lambda instance: 0.25)
        assert len(result.events) == 2
        replacement = max(result.final_loads)
        assert replacement == 2  # fresh instance index
        assert result.makespan_seconds > plan.makespan_seconds

    def test_faultplan_plugs_in(self):
        plan = plan_fleet(self.jobs(), 4)
        chaos = FaultPlan(seed=13, preemption_rate=0.5)
        result = simulate_preemptions(plan, chaos.preemption_fraction)
        again = simulate_preemptions(plan, chaos.preemption_fraction)
        assert result.final_loads == again.final_loads  # deterministic

    def test_bad_fraction_rejected(self):
        plan = plan_fleet(self.jobs(), 2)
        with pytest.raises(ValueError):
            simulate_preemptions(plan, lambda instance: 1.5)
        with pytest.raises(ValueError):
            simulate_preemptions(plan, lambda instance: None,
                                 restart_overhead_s=-1.0)


class TestSystemIntegration:
    def sites(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        return [synthesize_site(rng, BENCH_PROFILE) for _ in range(n)]

    def test_sync_scheduling_rejects_resilience(self):
        with pytest.raises(ValueError):
            SystemConfig(scheduling="sync",
                         resilience=ResilienceConfig.chaos(0, 0.1))

    def test_fault_free_resilient_run_matches_plain_run(self):
        sites = self.sites()
        plain = AcceleratedIRSystem(SystemConfig.iracc()).run(sites)
        resilient = AcceleratedIRSystem(SystemConfig(
            resilience=ResilienceConfig(plan=FaultPlan.none())
        )).run(sites)
        assert resilient.total_seconds == plain.total_seconds
        assert resilient.resilience is not None
        assert resilient.resilience.counters.total_injected == 0
        assert resilient.fallback_site_indices == set()
        assert resilient.active_units == 32

    def test_chaotic_run_reports_stats_and_costs_time(self):
        sites = self.sites()
        plain = AcceleratedIRSystem(SystemConfig.iracc()).run(sites)
        chaotic = AcceleratedIRSystem(SystemConfig(
            resilience=ResilienceConfig.chaos(seed=9, rate=0.4)
        )).run(sites)
        stats = chaotic.resilience
        assert stats is not None
        assert stats.counters.total_injected > 0
        assert chaotic.total_seconds > plain.total_seconds
        assert len(stats.completions) == len(sites)
        assert 0 < stats.active_units <= 32

    def test_replicated_chaos_keys_positions_not_sites(self):
        sites = self.sites(n=6)
        run = AcceleratedIRSystem(SystemConfig(
            resilience=ResilienceConfig.chaos(seed=2, rate=0.3)
        )).run(sites, replication=3)
        assert len(run.resilience.completions) == 18
        assert run.fallback_site_indices <= set(range(6))


class TestResilienceExperiment:
    def test_report_degrades_gracefully(self):
        from repro.experiments import resilience as experiment

        report = experiment.run(
            fault_rates=(0.0, 0.1, 0.3),
            sites_per_chromosome=12, replication=2,
        )
        assert len(report.rows) == 3
        assert report.rows[0].faults_injected == 0
        assert report.rows[0].speedup == report.fault_free_speedup
        # Faults cost time but the system never collapses.
        assert report.worst_speedup > 0.0
        assert report.rows[-1].total_seconds >= report.rows[0].total_seconds
        assert report.degrades_gracefully

    def test_main_prints_table(self, capsys):
        from repro.experiments import resilience as experiment

        experiment.main(fault_rates=(0.0, 0.2),
                        sites_per_chromosome=8, replication=1)
        output = capsys.readouterr().out
        assert "speedup vs. injected fault rate" in output
        assert "fault rate" in output


class TestChaosCli:
    def test_resilience_parser_flags(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args([
            "resilience", "--fault-rate", "0.05", "--fault-rate", "0.2",
            "--chaos-seed", "7", "--sites", "16", "--replication", "2",
        ])
        assert args.fault_rate == [0.05, 0.2]
        assert args.chaos_seed == 7

    def test_chaotic_realign_is_byte_identical(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        out = tmp_path / "sample"
        assert cli_main([
            "simulate", "--out", str(out), "--length", "8000",
            "--seed", "2", "--coverage", "15",
        ]) == 0
        assert cli_main([
            "realign", "--reference", str(out / "reference.fa"),
            "--sam", str(out / "aligned.sam"),
            "--out", str(out / "clean.sam"), "--accelerated",
        ]) == 0
        assert cli_main([
            "realign", "--reference", str(out / "reference.fa"),
            "--sam", str(out / "aligned.sam"),
            "--out", str(out / "chaos.sam"), "--accelerated",
            "--fault-rate", "0.4", "--chaos-seed", "11",
        ]) == 0
        captured = capsys.readouterr().out
        assert "chaos mode (seed 11, rate 40%)" in captured
        assert "faults injected" in captured
        clean = (out / "clean.sam").read_bytes()
        chaos = (out / "chaos.sam").read_bytes()
        assert chaos == clean

    def test_resilience_command_smoke(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main([
            "resilience", "--fault-rate", "0.2",
            "--sites", "8", "--replication", "1",
        ]) == 0
        assert "speedup vs. injected fault rate" in capsys.readouterr().out
