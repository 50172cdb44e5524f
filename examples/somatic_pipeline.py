"""Somatic variant calling with and without INDEL realignment.

The paper's motivating workload: "somatic variant calls (i.e. identified
cancer mutations) must contain as few errors as possible." This example
simulates a tumor sample with low-fraction somatic variants, runs the
full alignment-refinement pipeline (sort -> duplicate marking -> INDEL
realignment -> BQSR) with the realignment stage on the simulated FPGA,
and shows the precision/recall improvement IR delivers at the variant
level.

Run:  python examples/somatic_pipeline.py
"""

from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.refinement.pipeline import RefinementPipeline
from repro.variants.caller import SomaticCaller
from repro.variants.evaluation import evaluate_calls


def main():
    profile = SimulationProfile(
        coverage=45,
        indel_rate=8e-4,
        snp_rate=1.2e-3,
        somatic_fraction_range=(0.25, 0.9),  # subclonal tumor fractions
        aligner_indel_accuracy=0.45,
        hotspot_mass=0.1,
    )
    sample = simulate_sample({"chr17": 30_000}, profile=profile, seed=23)
    indels = sum(1 for v in sample.truth_variants if v.is_indel)
    print(f"tumor sample: {len(sample.reads)} reads at "
          f"{profile.coverage:.0f}x, {len(sample.truth_variants)} somatic "
          f"truth variants ({indels} INDELs)")

    caller = SomaticCaller(sample.reference)

    # --- naive calling on raw alignments --------------------------------
    raw_calls = caller.call(sample.reads)
    raw = evaluate_calls(raw_calls, sample.truth_variants)
    print(f"\nwithout refinement: precision {raw.precision:.2f}, "
          f"recall {raw.recall:.2f}, F1 {raw.f1:.2f} "
          f"({len(raw.false_positives)} false calls)")

    # --- the full refinement pipeline, IR on the accelerator ------------
    pipeline = RefinementPipeline(
        sample.reference, engine=AcceleratedIRSystem(SystemConfig.iracc()),
    )
    refined = pipeline.run(sample.reads)
    print(f"\nrefinement pipeline stages:")
    for stage in refined.stages:
        print(f"  {stage.stage:36s} {stage.seconds:7.3f}s "
              f"({refined.fraction(stage.stage):5.1%})")
    print(f"  duplicates marked: "
          f"{refined.duplicate_report.duplicates_marked}")
    print(f"  reads realigned:   "
          f"{refined.realigner_report.reads_realigned}")

    post_calls = caller.call(refined.reads)
    post = evaluate_calls(post_calls, sample.truth_variants)
    print(f"\nwith IR + refinement: precision {post.precision:.2f}, "
          f"recall {post.recall:.2f}, F1 {post.f1:.2f} "
          f"({len(post.false_positives)} false calls)")
    print(f"false positives removed by refinement: "
          f"{len(raw.false_positives) - len(post.false_positives)}")


if __name__ == "__main__":
    main()
