"""Cloud-cost arithmetic (Figure 9 right).

"Our accelerated system not only performs an order of magnitude better,
it is also an order of magnitude more cost efficient than running the
most optimized software, and can complete INDEL realignment for all
chromosomes for just 90 cents. Whereas, GATK3 and ADAM take $28 and
$14.5 to run on R3 instances respectively."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.instances import EC2Instance


@dataclass(frozen=True)
class CostReport:
    """Dollars and hours to run one system configuration."""

    system: str
    instance: EC2Instance
    seconds: float
    dollars: float

    @property
    def hours(self) -> float:
        return self.seconds / 3600.0


def cost_of_run(system: str, instance: EC2Instance, seconds: float
                ) -> CostReport:
    """Cost of running ``system`` on ``instance`` for ``seconds``."""
    return CostReport(
        system=system,
        instance=instance,
        seconds=seconds,
        dollars=instance.cost(seconds),
    )


def cost_efficiency(baseline: CostReport, accelerated: CostReport) -> float:
    """How many times cheaper the accelerated run is (paper: 32x vs
    GATK3, 17x vs ADAM)."""
    if accelerated.dollars == 0:
        raise ValueError("accelerated cost must be positive")
    return baseline.dollars / accelerated.dollars


def required_gpu_speedup(
    gpu: EC2Instance,
    f1: EC2Instance,
    iracc_speedup_over_gatk3: float,
) -> float:
    """Speedup a GPU system would need to match IR ACC cost-performance.

    "For a single high-end GPU AWS EC2 instance ($3.06/hr) to match the
    performance and the cost of an accelerated IR system on an F1
    instance ($1.65/hr), the GPU system needs to achieve a 148.36x
    speedup over the GATK3 baseline" -- i.e. the IR ACC speedup scaled
    by the price ratio (80 x 3.06 / 1.65 = 148.36).
    """
    if iracc_speedup_over_gatk3 <= 0:
        raise ValueError("speedup must be positive")
    return iracc_speedup_over_gatk3 * gpu.price_per_hour / f1.price_per_hour
