"""Plan a whole-genome INDEL realignment job in the cloud.

Reproduces the paper's deployment question: given chromosomes 1-22 of a
60-65x genome, what does INDEL realignment cost on each platform, and
how does the accelerated F1 deployment scale? Uses the per-chromosome
census, the calibrated GATK3/ADAM models, and measured accelerator
throughput from a sampled workload.

Run:  python examples/cloud_cost_planner.py
"""

from repro.baselines.adam import AdamBaseline
from repro.baselines.gatk3 import Gatk3Baseline
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.experiments.reporting import format_table
from repro.perf.instances import F1_2XLARGE, R3_2XLARGE
from repro.perf.model import chromosome_unpruned_comparisons
from repro.workloads.chromosomes import CHROMOSOME_CENSUS
from repro.workloads.generator import BENCH_PROFILE, chromosome_workload


def measure_accelerator_rate(seed: int = 3) -> float:
    """Effective unpruned-equivalent comparisons/second of IR ACC,
    measured on a sampled chromosome-22 workload."""
    census = CHROMOSOME_CENSUS[-1]
    sites = chromosome_workload(census, 64 / census.ir_targets,
                                BENCH_PROFILE, seed=seed)
    run = AcceleratedIRSystem(SystemConfig.iracc()).run(sites, replication=24)
    return run.effective_comparisons_per_second


def main():
    gatk3 = Gatk3Baseline()
    adam = AdamBaseline(gatk3_model=gatk3.model)
    accel_rate = measure_accelerator_rate()
    print(f"measured IR ACC effective rate: {accel_rate:.3g} "
          f"unpruned-equivalent comparisons/s\n")

    rows = []
    totals = {"GATK3": 0.0, "ADAM": 0.0, "IR ACC": 0.0}
    for census in CHROMOSOME_CENSUS:
        work = chromosome_unpruned_comparisons(census)
        gatk3_s = gatk3.model.seconds_for_comparisons(work)
        adam_s = adam.seconds_for_comparisons(work)
        accel_s = work / accel_rate
        totals["GATK3"] += gatk3_s
        totals["ADAM"] += adam_s
        totals["IR ACC"] += accel_s
        rows.append([
            f"chr{census.name}", f"{census.ir_targets:,}",
            f"{gatk3_s / 3600:.1f}h", f"{adam_s / 3600:.1f}h",
            f"{accel_s / 60:.1f}m",
        ])
    print(format_table(
        ["chromosome", "IR targets", "GATK3 (r3)", "ADAM (r3)",
         "IR ACC (f1)"], rows,
    ))

    print("\nwhole-genome totals (chromosomes 1-22):")
    cost_rows = []
    for system, seconds in totals.items():
        instance = F1_2XLARGE if system == "IR ACC" else R3_2XLARGE
        cost_rows.append([
            system, instance.name,
            f"{seconds / 3600:.2f}h", f"${instance.cost(seconds):.2f}",
        ])
    print(format_table(["system", "instance", "time", "cost"], cost_rows))
    iracc_cost = F1_2XLARGE.cost(totals["IR ACC"])
    print(f"\ncost efficiency: {R3_2XLARGE.cost(totals['GATK3']) / iracc_cost:.0f}x "
          f"vs GATK3, {R3_2XLARGE.cost(totals['ADAM']) / iracc_cost:.0f}x vs ADAM "
          f"(paper: 32x and 17x)")

    # Fleet planning: a diagnostic lab's batch of genomes.
    print("\nfleet planning for a 100-genome batch (time vs F1 fleet size):")
    genome_seconds = totals["IR ACC"] * 100
    fleet_rows = []
    for fleet in (1, 4, 16, 64):
        wall = genome_seconds / fleet
        cost = F1_2XLARGE.cost(genome_seconds)  # instance-time is constant
        fleet_rows.append([fleet, f"{wall / 3600:.1f}h", f"${cost:.0f}"])
    print(format_table(["F1 instances", "wall clock", "total cost"],
                       fleet_rows))


if __name__ == "__main__":
    main()
