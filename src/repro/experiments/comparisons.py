"""Section V-B comparison points: ADAM, HLS, and GPU.

- ADAM: "Our accelerated IR system performs 30.2x-69.1x better than
  ADAM, with an average of 41.4x speedup over Ch1-Ch22."
- HLS: "we were only able to get a modest speedup of 1.3x-3.1x over
  GATK3" with the SDAccel build.
- GPU: no GPU INDEL realigner exists; a p3 instance would need 148.36x
  over GATK3 to match IR ACC cost-performance, far beyond the 1.4-14.6x
  published GPU gains in and around the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.baselines.adam import PAPER_IRACC_OVER_ADAM_AVG, PAPER_IRACC_OVER_ADAM_RANGE
from repro.baselines.gpu import (
    GPU_SURVEY,
    GPU_TYPICAL_CEILING,
    PAPER_REQUIRED_GPU_SPEEDUP,
    required_speedup,
    survey_max_speedup,
)
from repro.baselines.hls import PAPER_HLS_SPEEDUP_RANGE
from repro.experiments.figure9 import Figure9Result, run as run_figure9
from repro.experiments.reporting import banner, format_table


@dataclass
class ComparisonsResult:
    figure9: Figure9Result
    adam_speedups: List[float]
    hls_speedups: List[float]
    gpu_required: float
    gpu_survey_best: float

    @property
    def adam_gmean(self) -> float:
        return float(np.exp(np.mean(np.log(self.adam_speedups))))

    @property
    def hls_range(self) -> Tuple[float, float]:
        return (min(self.hls_speedups), max(self.hls_speedups))


def run(sites_per_chromosome: int = 96, replication: int = 24,
        chromosomes=("2", "9", "21")) -> ComparisonsResult:
    figure9 = run_figure9(
        sites_per_chromosome=sites_per_chromosome,
        replication=replication,
        chromosomes=chromosomes,
        design_subset=chromosomes,
    )
    adam = [row.adam_speedup for row in figure9.rows]
    hls = [
        row.gatk3_seconds / row.design_seconds["HLS-SDAccel"]
        for row in figure9.rows
        if "HLS-SDAccel" in row.design_seconds
    ]
    return ComparisonsResult(
        figure9=figure9,
        adam_speedups=adam,
        hls_speedups=hls,
        gpu_required=required_speedup(),
        gpu_survey_best=survey_max_speedup(),
    )


def main(sites_per_chromosome: int = 96, replication: int = 24
         ) -> ComparisonsResult:
    outcome = run(sites_per_chromosome, replication)
    print(banner("Section V-B comparisons"))
    print(f"IR ACC over ADAM: gmean {outcome.adam_gmean:.1f}x, range "
          f"{min(outcome.adam_speedups):.1f}-{max(outcome.adam_speedups):.1f}x"
          f"  (paper: avg {PAPER_IRACC_OVER_ADAM_AVG}x, range "
          f"{PAPER_IRACC_OVER_ADAM_RANGE[0]}-{PAPER_IRACC_OVER_ADAM_RANGE[1]}x)")
    lo, hi = outcome.hls_range
    print(f"HLS build over GATK3: {lo:.1f}-{hi:.1f}x "
          f"(paper: {PAPER_HLS_SPEEDUP_RANGE[0]}-{PAPER_HLS_SPEEDUP_RANGE[1]}x)")
    print(f"\nGPU speedup required to match IR ACC cost-performance: "
          f"{outcome.gpu_required:.2f}x "
          f"(paper: {PAPER_REQUIRED_GPU_SPEEDUP}x)")
    print(f"best published GPU gain in survey: {outcome.gpu_survey_best:.1f}x"
          f" (typical ceiling ~{GPU_TYPICAL_CEILING:.0f}x)")
    print()
    print(format_table(
        ["GPU implementation", "domain", "speedup", "ref"],
        [[p.name, p.domain, f"{p.speedup_low}-{p.speedup_high}x", p.reference]
         for p in GPU_SURVEY],
    ))
    return outcome


if __name__ == "__main__":
    main()
