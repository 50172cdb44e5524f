"""Integration tests for the accelerated IR system and host planning."""

import numpy as np
import pytest

from repro.core.host import HostPlanError, plan_targets
from repro.core.isa import BufferId
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.engine import EngineConfig
from repro.engine.autotune import dispatch_realign
from repro.experiments import figure7
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.hw.memory import DdrChannelModel
from repro.realign.realigner import IndelRealigner
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


@pytest.fixture(scope="module")
def sites():
    rng = np.random.default_rng(10)
    return [synthesize_site(rng, BENCH_PROFILE, complexity=0.5)
            for _ in range(12)]


class TestHostPlan:
    def test_addresses_disjoint_and_aligned(self, sites):
        plan = plan_targets(sites)
        intervals = []
        for target, site in zip(plan.targets, sites):
            sizes = {
                BufferId.CONSENSUS_BASES: sum(len(c) for c in site.consensuses),
                BufferId.READ_BASES: sum(len(r) for r in site.reads),
                BufferId.READ_QUALS: sum(len(r) for r in site.reads),
                BufferId.OUT_REALIGN: site.num_reads,
                BufferId.OUT_POSITIONS: 4 * site.num_reads,
            }
            for buffer_id, addr in target.buffer_addrs.items():
                assert addr % 64 == 0
                intervals.append((addr, addr + sizes[buffer_id]))
        intervals.sort()
        for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2

    def test_command_streams_count(self, sites):
        plan = plan_targets(sites)
        expected = sum(8 + s.num_consensuses for s in sites)
        assert plan.total_commands == expected
        assert plan.config_cycles() > 0

    def test_capacity_enforced(self, sites):
        tiny = DdrChannelModel(capacity_bytes=128)
        with pytest.raises(HostPlanError):
            plan_targets(sites, ddr=tiny)


class TestSystemConfig:
    def test_presets(self):
        assert SystemConfig.taskp().lanes == 1
        assert SystemConfig.taskp().scheduling == "sync"
        assert SystemConfig.taskp_async().scheduling == "async"
        assert SystemConfig.iracc().lanes == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_units=0)
        with pytest.raises(ValueError):
            SystemConfig(scheduling="later")

    def test_peak_rate(self):
        scalar = AcceleratedIRSystem(SystemConfig(lanes=1))
        assert scalar.peak_comparisons_per_second() == 32 * 125e6


class TestSystemRun:
    def test_functional_outputs_match_software(self, sites):
        run = AcceleratedIRSystem(SystemConfig.iracc()).run(sites)
        for site, result in zip(sites, run.unit_results):
            assert result.matches(dispatch_realign(site, kernel="vector"))

    def test_design_point_ordering(self, sites):
        times = {}
        for config in (SystemConfig.taskp(), SystemConfig.taskp_async(),
                       SystemConfig.iracc()):
            times[config.name] = AcceleratedIRSystem(config).run(
                sites, replication=8
            ).total_seconds
        assert times["IRAcc-TaskP-Async"] <= times["IRAcc-TaskP"]
        assert times["IR ACC"] < times["IRAcc-TaskP-Async"]

    def test_replication_semantics(self, sites):
        system = AcceleratedIRSystem(SystemConfig.iracc())
        once = system.run(sites, replication=1)
        many = system.run(sites, replication=8)
        assert many.targets_processed == 8 * once.targets_processed
        assert many.comparisons == 8 * once.comparisons
        # Unit results are computed once per distinct site.
        assert len(many.unit_results) == len(sites)
        # More rounds amortize the tail: utilization cannot degrade much.
        assert many.utilization >= once.utilization - 0.05
        with pytest.raises(ValueError):
            system.run(sites, replication=0)

    def test_statistics(self, sites):
        run = AcceleratedIRSystem(SystemConfig.iracc()).run(sites)
        assert 0.0 < run.pruned_fraction < 1.0
        assert run.comparisons_per_second > 0
        assert run.effective_comparisons_per_second >= run.comparisons_per_second
        assert 0.0 <= run.transfer_fraction < 1.0
        assert run.compute_cycles == sum(
            r.cycles.total for r in run.unit_results
        )


#: The modelled numbers of a seeded 24-site pool, replicated three times
#: (72 targets on 32 units), per design point: schedule makespan (cycles),
#: total_seconds, transfer_seconds, pruned_fraction and each site's
#: cycles.total. Exact: a change to the fault-free model moves them.
MODELLED_POOL = {
    "taskp": (3239196, 0.025913568, 2.0835e-05, 0.47927632915543306),
    "taskp_async": (1472531, 0.011780248, 2.0835e-05, 0.47927632915543306),
    "iracc": (91981, 0.000735848, 2.0835e-05, 0.29721346779071856),
}
SCALAR_SITE_CYCLES = [
    188820, 55604, 82890, 75308, 66312, 326930, 64450, 38647, 38513,
    1363423, 93372, 112663, 713341, 162823, 60702, 52156, 18992, 61971,
    509371, 83406, 294770, 64642, 20246, 98960,
]
VECTOR_SITE_CYCLES = [
    11892, 3626, 5142, 7114, 5996, 25788, 4973, 2524, 2328, 84101, 6118,
    6453, 40946, 8581, 3759, 3140, 1567, 5650, 26321, 12527, 23921, 4404,
    1230, 5637,
]


class TestModelledNumbers:
    @pytest.fixture(scope="class")
    def pool(self):
        rng = np.random.default_rng(2019)
        return [synthesize_site(rng, BENCH_PROFILE, complexity=0.5)
                for _ in range(24)]

    @pytest.mark.parametrize("point", sorted(MODELLED_POOL))
    def test_design_point_numbers_are_pinned(self, pool, point):
        run = AcceleratedIRSystem(getattr(SystemConfig, point)()).run(
            pool, replication=3
        )
        assert (run.schedule.makespan, run.total_seconds,
                run.transfer_seconds, run.pruned_fraction) \
            == MODELLED_POOL[point]
        assert [r.cycles.total for r in run.unit_results] == (
            VECTOR_SITE_CYCLES if point == "iracc" else SCALAR_SITE_CYCLES
        )

    def test_figure7_makespans_are_pinned(self):
        outcome = figure7.run()
        assert [schedule.makespan for schedule in (
            outcome.sync, outcome.async_, outcome.async_batched,
            outcome.async_turnaround, outcome.async_overlapped,
        )] == [344167, 200324, 200324, 200449, 200324]


class TestAcceleratedRealigner:
    """The realigner with its kernel on the FPGA model."""

    def test_matches_software_realigner_end_to_end(self):
        profile = SimulationProfile(indel_rate=1.5e-3, coverage=25)
        sample = simulate_sample({"1": 15_000}, profile=profile, seed=21)
        software, software_report = IndelRealigner(
            sample.reference, engine=EngineConfig(workers=1),
        ).realign(sample.reads)
        system = AcceleratedIRSystem()
        assert system.last_run is None
        accelerated, report = IndelRealigner(
            sample.reference, engine=system,
        ).realign(sample.reads)
        assert report.reads_realigned > 0
        # One realigner: the engine changes no count.
        assert report == software_report
        run = system.last_run
        assert run.total_seconds > 0
        assert len(run.unit_results) == report.sites_built
        for a, b in zip(software, accelerated):
            assert a.pos == b.pos
            assert str(a.cigar) == str(b.cigar)
