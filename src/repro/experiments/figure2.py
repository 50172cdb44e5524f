"""Figure 2: genomic-analysis execution-time breakdown.

The paper measures the three pipelines at ~17 h (primary alignment,
BWA-MEM), ~72 h (alignment refinement, GATK3), and ~36 h (variant
calling, GATK3) -- primary alignment "accounts for less than 15% of the
genomic analysis execution time, while the alignment refinement pipeline
accounts for roughly 60%", with Smith-Waterman at 5% and suffix-array
lookup at 1.5% of the total.

Two complementary reproductions:

- the *model* breakdown from :mod:`repro.perf.pipelines` (census-scale);
- a *measured* breakdown from actually executing the refinement pipeline
  on a simulated sample (bench-scale), to confirm the stage ordering
  holds in running code, with IR dominating refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.reporting import banner, format_table
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.perf.pipelines import (
    PAPER_PIPELINE_HOURS,
    ir_share_of_total,
    pipeline_fractions,
    stage_hours,
    total_analysis_hours,
)
from repro.refinement.pipeline import PipelineResult, RefinementPipeline

#: Paper statements the reproduction asserts against.
PAPER_PRIMARY_SHARE_MAX = 0.15
PAPER_REFINEMENT_SHARE_APPROX = 0.60
PAPER_IR_TOTAL_SHARE_APPROX = 0.34


@dataclass
class Figure2Result:
    pipeline_shares: Dict[str, float]
    stage_hours: Dict[str, Dict[str, float]]
    ir_total_share: float
    measured: Optional[PipelineResult] = None

    @property
    def measured_ir_fraction(self) -> float:
        if self.measured is None:
            return 0.0
        return self.measured.fraction("indel_realignment")


def run(execute_pipeline: bool = True, seed: int = 2) -> Figure2Result:
    result = Figure2Result(
        pipeline_shares=pipeline_fractions(),
        stage_hours=stage_hours(),
        ir_total_share=ir_share_of_total(),
    )
    if execute_pipeline:
        from repro.engine import EngineConfig

        profile = SimulationProfile(indel_rate=8e-4, coverage=30)
        sample = simulate_sample({"22": 20_000}, profile=profile, seed=seed)
        # Pin the baseline numpy kernel: this figure profiles the
        # *unaccelerated* refinement pipeline, so its stage breakdown
        # must not shift with the compiled tier `auto` resolves to.
        pipeline = RefinementPipeline(sample.reference,
                                      engine=EngineConfig(kernel="vector"))
        result.measured = pipeline.run(sample.reads)
    return result


def main() -> Figure2Result:
    outcome = run()
    print(banner("Figure 2: execution-time breakdown"))
    rows = []
    for pipeline, share in outcome.pipeline_shares.items():
        rows.append([pipeline, f"{PAPER_PIPELINE_HOURS[pipeline]:.0f}h",
                     f"{share:.1%}"])
    print(format_table(["pipeline", "hours", "share of total"], rows))
    print()
    stage_rows = []
    for pipeline, stages in outcome.stage_hours.items():
        for stage, hours in stages.items():
            stage_rows.append([pipeline, stage, f"{hours:.1f}h",
                               f"{hours / total_analysis_hours():.1%}"])
    print(format_table(["pipeline", "stage", "hours", "share"], stage_rows))
    print(f"\nIR share of total analysis: {outcome.ir_total_share:.1%} "
          f"(paper: ~{PAPER_IR_TOTAL_SHARE_APPROX:.0%})")
    if outcome.measured is not None:
        print("\nExecuted refinement pipeline (bench-scale sample):")
        print(format_table(
            ["stage", "seconds", "fraction"],
            [[s.stage, f"{s.seconds:.3f}",
              f"{outcome.measured.fraction(s.stage):.1%}"]
             for s in outcome.measured.stages],
        ))
        print(f"measured IR fraction of refinement: "
              f"{outcome.measured_ir_fraction:.1%}")
    return outcome


if __name__ == "__main__":
    main()
