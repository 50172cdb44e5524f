"""Unit tests for the workload census and generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import IRUnit, UnitConfig
from repro.workloads.chromosomes import (
    ANCHOR_CH2_TARGETS,
    ANCHOR_CH21_TARGETS,
    CHROMOSOME_CENSUS,
    GRCH37_LENGTHS,
    census_for,
)
from repro.workloads.generator import (
    BENCH_PROFILE,
    REAL_PROFILE,
    SiteProfile,
    chromosome_workload,
    expected_comparisons_per_site,
    synthesize_site,
)
from repro.genomics.simulate import SimulationProfile
from repro.workloads.adversarial import (
    TRUSEQ_ADAPTER,
    AdversarialProfile,
    adversarial_sample,
)
from repro.workloads.cohort import (
    CohortProfile,
    indel_support,
    simulate_cohort,
)
from repro.workloads.toy import (
    NUM_CONSENSUSES,
    NUM_READS,
    NUM_TARGETS,
    figure7_toy_targets,
)


class TestCensus:
    def test_covers_22_chromosomes(self):
        assert len(CHROMOSOME_CENSUS) == 22
        assert {c.name for c in CHROMOSOME_CENSUS} == \
            {str(i) for i in range(1, 23)}

    def test_paper_anchors(self):
        assert census_for("21").ir_targets == ANCHOR_CH21_TARGETS
        assert census_for("2").ir_targets == ANCHOR_CH2_TARGETS

    def test_targets_increase_with_length(self):
        ordered = sorted(CHROMOSOME_CENSUS, key=lambda c: c.length_bp)
        counts = [c.ir_targets for c in ordered]
        assert counts == sorted(counts)
        assert all(count > 0 for count in counts)

    def test_complexity_band(self):
        for census in CHROMOSOME_CENSUS:
            assert 0.82 <= census.complexity < 1.24

    def test_reads_proportional_to_length(self):
        total_reads = sum(c.reads for c in CHROMOSOME_CENSUS)
        assert total_reads == pytest.approx(763_275_063, rel=1e-6)

    def test_unknown_chromosome_lookup_raises(self):
        with pytest.raises(KeyError):
            census_for("X")

    def test_lengths_are_grch37(self):
        assert GRCH37_LENGTHS["1"] == 249_250_621
        assert GRCH37_LENGTHS["21"] == 48_129_895


class TestGenerator:
    @given(st.integers(0, 200), st.floats(0.5, 1.5))
    @settings(max_examples=30, deadline=None)
    def test_sites_respect_paper_limits(self, seed, complexity):
        rng = np.random.default_rng(seed)
        site = synthesize_site(rng, BENCH_PROFILE, complexity=complexity)
        limits = BENCH_PROFILE.limits
        assert 2 <= site.num_consensuses <= limits.max_consensuses
        assert 2 <= site.num_reads <= limits.max_reads
        assert all(len(c) <= limits.max_consensus_length
                   for c in site.consensuses)
        assert all(len(r) <= limits.max_read_length for r in site.reads)
        max_read = max(len(r) for r in site.reads)
        assert all(len(c) >= max_read for c in site.consensuses)

    def test_deterministic_by_seed(self):
        a = synthesize_site(np.random.default_rng(3))
        b = synthesize_site(np.random.default_rng(3))
        assert a.consensuses == b.consensuses
        assert a.reads == b.reads

    def test_chromosome_workload_scaling(self):
        census = census_for("21")
        sites = chromosome_workload(census, 10 / census.ir_targets, seed=1)
        assert len(sites) == 10
        assert all(site.chrom == "21" for site in sites)
        with pytest.raises(ValueError):
            chromosome_workload(census, 0)

    def test_workload_always_at_least_one_site(self):
        census = census_for("21")
        assert len(chromosome_workload(census, 1e-9)) == 1

    def test_expected_comparisons_positive_and_monotone(self):
        base = expected_comparisons_per_site(REAL_PROFILE, 1.0)
        harder = expected_comparisons_per_site(REAL_PROFILE, 1.2)
        assert 0 < base < harder

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SiteProfile("bad", 1.0, 10.0, (10, 20), 100.0)
        with pytest.raises(ValueError):
            SiteProfile("bad", 4.0, 10.0, (20, 10), 100.0)


class TestToyWorkload:
    def test_figure7_geometry(self):
        sites = figure7_toy_targets()
        assert len(sites) == NUM_TARGETS == 8
        for site in sites:
            assert site.num_consensuses == NUM_CONSENSUSES == 2
            assert site.num_reads == NUM_READS == 8
            assert len(site.reference) == len(sites[0].reference)

    def test_pruning_variance_near_paper(self):
        sites = figure7_toy_targets()
        unit = IRUnit(UnitConfig(lanes=1))
        cycles = [unit.run_site(site).cycles.total for site in sites]
        ratio = cycles[3] / cycles[1]
        # Paper: "about 8 times"; same-sized targets throughout.
        assert 6.0 <= ratio <= 10.0
        assert max(cycles) == cycles[3]


class TestCohortWorkload:
    CONTIGS = {"chrT": 4_000}
    PROFILE = SimulationProfile(coverage=10.0, indel_rate=2e-3)

    def _cohort(self, seed=5, **kwargs):
        return simulate_cohort(
            self.CONTIGS,
            cohort_profile=CohortProfile(**kwargs),
            sim_profile=self.PROFILE,
            seed=seed,
        )

    def test_samples_share_reference_and_loci(self):
        cohort = self._cohort()
        assert len(cohort.samples) == 3
        for entry in cohort.samples:
            assert entry.sample.reference is cohort.reference
            # Same loci at every timepoint: only fractions differ.
            assert ([(v.chrom, v.pos, v.ref, v.alt)
                     for v in entry.sample.truth_variants]
                    == [(v.chrom, v.pos, v.ref, v.alt)
                        for v in cohort.shared_variants])

    def test_trajectories_cover_every_variant_and_drift(self):
        cohort = self._cohort(drift="rising")
        assert len(cohort.trajectories) == len(cohort.shared_variants)
        for path in cohort.trajectories.values():
            assert len(path) == 3
            assert all(0.0 < f <= 1.0 for f in path)
            assert path[0] <= path[-1]  # rising drift
        falling = self._cohort(drift="falling")
        for path in falling.trajectories.values():
            assert path[0] >= path[-1]

    def test_variants_at_applies_trajectory_fractions(self):
        cohort = self._cohort()
        for timepoint in range(3):
            for variant in cohort.variants_at(timepoint):
                key = (variant.chrom, variant.pos, variant.ref, variant.alt)
                assert variant.allele_fraction == (
                    cohort.trajectories[key][timepoint]
                )

    def test_cohort_is_deterministic_by_seed(self):
        a = self._cohort(seed=8)
        b = self._cohort(seed=8)
        assert a.trajectories == b.trajectories
        for sa, sb in zip(a.samples, b.samples):
            assert ([(r.name, r.pos, r.seq) for r in sa.sample.reads]
                    == [(r.name, r.pos, r.seq) for r in sb.sample.reads])
        different = self._cohort(seed=9)
        assert different.trajectories != a.trajectories

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            CohortProfile(timepoints=0)
        with pytest.raises(ValueError):
            CohortProfile(fraction_floor=0.9, fraction_ceiling=0.5)
        with pytest.raises(ValueError):
            CohortProfile(drift="sideways")

    def test_indel_support_counts_gapped_reads(self):
        cohort = self._cohort(seed=12)
        indels = [v for v in cohort.shared_variants if v.is_indel]
        assert indels, "cohort plan produced no INDELs; pick another seed"
        reads = cohort.samples[-1].sample.reads
        for variant in indels:
            support, depth = indel_support(reads, variant)
            assert 0 <= support <= depth


class TestAdversarialWorkload:
    def test_sample_contains_every_corruption_kind(self):
        hostile = adversarial_sample(
            {"chrA": 5_000, "chrB": 3_000},
            sim_profile=SimulationProfile(coverage=14.0, indel_rate=1.5e-3),
            seed=3,
        )
        for kind in ("contaminant", "chimera", "low_quality_tail",
                     "adapter"):
            assert hostile.counts.get(kind, 0) > 0, f"no {kind} injected"
        names = {read.name for read in hostile.sample.reads}
        assert set(hostile.labels) <= names

    def test_corrupted_reads_stay_structurally_valid(self):
        hostile = adversarial_sample({"chrA": 4_000}, seed=4)
        for read in hostile.sample.reads:
            assert read.is_mapped
            assert read.cigar.read_length == len(read)
            assert read.end <= len(next(iter(hostile.sample.reference)))

    def test_adapter_read_through_plants_the_adapter(self):
        hostile = adversarial_sample({"chrA": 6_000}, seed=3)
        adapters = [read for read in hostile.sample.reads
                    if hostile.labels.get(read.name) == ("adapter",)]
        assert adapters
        for read in adapters:
            assert read.seq.endswith(TRUSEQ_ADAPTER[: len(read)])

    def test_low_quality_tails_are_floored(self):
        profile = AdversarialProfile(low_quality_tail_rate=0.5,
                                     chimera_rate=0.0, adapter_rate=0.0,
                                     contamination_rate=0.0)
        hostile = adversarial_sample({"chrA": 4_000},
                                     adv_profile=profile, seed=6)
        tails = [read for read in hostile.sample.reads
                 if hostile.labels.get(read.name) == ("low_quality_tail",)]
        assert tails
        for read in tails:
            assert int(read.quals[-1]) == profile.tail_quality
