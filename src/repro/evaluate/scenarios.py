"""The committed scenario catalog.

Each scenario is a seeded, fully deterministic workload with known
truth, sized so the whole catalog evaluates in seconds (the goldens
recompute inside tier-1 CI). The catalog is the repo's accuracy
backstop: perf and serving PRs gate on these reports staying
score-identical (see ``docs/EVALUATION.md`` for how to add one).

- ``toy`` -- one contig, one sample: the minimal INDEL-bearing
  workload, the first thing to check when realignment outcomes drift.
- ``cohort`` -- a longitudinal three-timepoint cohort over shared
  target loci with drifting allele-frequency trajectories
  (:mod:`repro.workloads.cohort`).
- ``adversarial`` -- a two-contig sample corrupted with contaminant
  reads, chimeras, low-quality tails, and adapter read-through
  (:mod:`repro.workloads.adversarial`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.genomics.simulate import SimulatedSample, SimulationProfile
from repro.evaluate.harness import cohort_trajectories, evaluate_sample
from repro.evaluate.report import EvaluationReport
from repro.variants.caller import CallerConfig

#: The scenario names the CLI and the goldens agree on.
SCENARIO_NAMES = ("toy", "cohort", "adversarial")

#: Default per-scenario seeds; a scenario plus its seed is the identity
#: the goldens pin.
DEFAULT_SEEDS = {"toy": 11, "cohort": 23, "adversarial": 31}


@dataclass
class ScenarioData:
    """A prepared scenario: named samples plus scenario-level context."""

    name: str
    seed: int
    params: Dict[str, object]
    samples: List[Tuple[str, SimulatedSample]]
    cohort: object = None  # repro.workloads.cohort.Cohort for "cohort"
    injected: Dict[str, int] = field(default_factory=dict)


def _toy_profile() -> SimulationProfile:
    return SimulationProfile(
        coverage=16.0,
        indel_rate=1.5e-3,
        snp_rate=5e-4,
        somatic_fraction_range=(0.5, 1.0),
    )


def build_toy(seed: int) -> ScenarioData:
    from repro.genomics.simulate import simulate_sample

    params = {"contig_lengths": {"chr22": 9_000}, "coverage": 16.0,
              "indel_rate": 1.5e-3}
    sample = simulate_sample(params["contig_lengths"],
                             profile=_toy_profile(), seed=seed)
    return ScenarioData(name="toy", seed=seed, params=params,
                        samples=[("toy", sample)])


def build_cohort(seed: int) -> ScenarioData:
    from repro.workloads.cohort import CohortProfile, simulate_cohort

    params = {"contig_lengths": {"chrC": 7_000}, "timepoints": 3,
              "coverage": 12.0, "indel_rate": 1.8e-3}
    profile = SimulationProfile(
        coverage=12.0,
        indel_rate=1.8e-3,
        snp_rate=4e-4,
        somatic_fraction_range=(0.5, 1.0),
    )
    cohort = simulate_cohort(
        params["contig_lengths"],
        cohort_profile=CohortProfile(timepoints=3),
        sim_profile=profile,
        seed=seed,
    )
    samples = [(s.name, s.sample)
               for s in sorted(cohort.samples, key=lambda s: s.timepoint)]
    return ScenarioData(name="cohort", seed=seed, params=params,
                        samples=samples, cohort=cohort)


def build_adversarial(seed: int) -> ScenarioData:
    from repro.workloads.adversarial import (
        AdversarialProfile,
        adversarial_sample,
    )

    params = {"contig_lengths": {"chrA": 6_000, "chrB": 4_000},
              "coverage": 14.0, "indel_rate": 1.5e-3,
              "contamination_rate": 0.05, "chimera_rate": 0.03,
              "low_quality_tail_rate": 0.08, "adapter_rate": 0.04}
    profile = SimulationProfile(
        coverage=14.0,
        indel_rate=1.5e-3,
        snp_rate=5e-4,
        somatic_fraction_range=(0.5, 1.0),
    )
    hostile = adversarial_sample(
        params["contig_lengths"],
        sim_profile=profile,
        adv_profile=AdversarialProfile(),
        seed=seed,
    )
    return ScenarioData(name="adversarial", seed=seed, params=params,
                        samples=[("adversarial", hostile.sample)],
                        injected=dict(hostile.counts))


_BUILDERS: Dict[str, Callable[[int], ScenarioData]] = {
    "toy": build_toy,
    "cohort": build_cohort,
    "adversarial": build_adversarial,
}


def build_scenario(name: str, seed: Optional[int] = None) -> ScenarioData:
    """Prepare one scenario's workload (no realignment yet)."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}"
        )
    return _BUILDERS[name](DEFAULT_SEEDS[name] if seed is None else seed)


def run_scenario(
    name: str,
    engine=None,
    seed: Optional[int] = None,
    caller_config: Optional[CallerConfig] = None,
) -> EvaluationReport:
    """Build a scenario, realign it, and score the outcomes.

    ``engine`` selects the execution path exactly as
    :class:`repro.realign.realigner.IndelRealigner` does (an
    :class:`~repro.engine.EngineConfig` names the kernel); the resulting
    report must be identical for every choice (kernels are exact and
    engines are byte-identical), which the accuracy matrix test pins.
    """
    data = build_scenario(name, seed)
    report = EvaluationReport(
        scenario=data.name, seed=data.seed, params=data.params,
        injected=data.injected,
    )
    before_by_sample: Dict[str, List] = {}
    after_by_sample: Dict[str, List] = {}
    for sample_name, sample in data.samples:
        evaluation, after = evaluate_sample(
            sample_name, sample, engine=engine,
            caller_config=caller_config,
        )
        report.samples.append(evaluation)
        before_by_sample[sample_name] = list(sample.reads)
        after_by_sample[sample_name] = after
    if data.cohort is not None:
        report.trajectories = cohort_trajectories(
            data.cohort, before_by_sample, after_by_sample
        )
    return report
