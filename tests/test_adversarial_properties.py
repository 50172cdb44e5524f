"""Property tests for the adversarial workload family.

The realigner's contract on hostile input is *stability*, not heroics:
corruption schedules are deterministic functions of their seed, the
realigner's output on a corrupted sample is deterministic, and the
prefilter may not change a single byte of it. Hypothesis drives the
corruption schedule (seeds and rates).
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.engine.batch import min_whd_grid_batched
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.realign.realigner import IndelRealigner
from repro.realign.whd import select_and_realign
from repro.workloads.adversarial import (
    AdversarialProfile,
    corrupt_sample,
)

CONTIGS = {"advA": 2_000, "advB": 1_500}
PROFILE = SimulationProfile(coverage=8.0, indel_rate=2e-3, snp_rate=5e-4)


@functools.lru_cache(maxsize=8)
def clean_sample(seed: int):
    return simulate_sample(CONTIGS, profile=PROFILE, seed=seed)


def read_key(read):
    return (read.name, read.chrom, read.pos, read.seq,
            read.quals.tobytes(), str(read.cigar), read.mapq)


def alignment_key(reads):
    return [(r.name, r.pos, str(r.cigar)) for r in reads]


rates = st.floats(min_value=0.0, max_value=0.15)
adversarial_profiles = st.builds(
    AdversarialProfile,
    contamination_rate=rates,
    chimera_rate=rates,
    adapter_rate=rates,
    low_quality_tail_rate=rates,
)


class TestCorruptionSchedule:
    @given(clean_seed=st.integers(0, 3), corrupt_seed=st.integers(0, 10_000),
           profile=adversarial_profiles)
    @settings(max_examples=25, deadline=None)
    def test_corruption_is_deterministic(self, clean_seed, corrupt_seed,
                                         profile):
        sample = clean_sample(clean_seed)
        first = corrupt_sample(sample, profile, seed=corrupt_seed)
        second = corrupt_sample(sample, profile, seed=corrupt_seed)
        assert ([read_key(r) for r in first.sample.reads]
                == [read_key(r) for r in second.sample.reads])
        assert first.labels == second.labels
        assert first.counts == second.counts

    @given(clean_seed=st.integers(0, 3), corrupt_seed=st.integers(0, 10_000),
           profile=adversarial_profiles)
    @settings(max_examples=25, deadline=None)
    def test_labels_account_for_every_change(self, clean_seed, corrupt_seed,
                                             profile):
        sample = clean_sample(clean_seed)
        hostile = corrupt_sample(sample, profile, seed=corrupt_seed)
        original = {read.name: read for read in sample.reads}

        injected = hostile.counts.get("contaminant", 0)
        assert len(hostile.sample.reads) == len(sample.reads) + injected

        aggregated = {}
        for kinds in hostile.labels.values():
            assert len(kinds) == 1  # at most one corruption per read
            aggregated[kinds[0]] = aggregated.get(kinds[0], 0) + 1
        assert aggregated == hostile.counts

        for read in hostile.sample.reads:
            kinds = hostile.labels.get(read.name)
            if kinds == ("contaminant",):
                assert read.name.startswith("contam")
                assert read.name not in original
                lo, hi = profile.contaminant_mapq
                assert lo <= read.mapq < hi
                placement = hostile.sample.truth_placements[read.name]
                assert placement.pos == read.pos
                assert placement.cigar == str(read.cigar)
            else:
                before = original[read.name]
                assert len(read) == len(before)
                assert (read.pos, str(read.cigar)) == (
                    before.pos, str(before.cigar)
                )  # corruption edits content, never coordinates
                if kinds is None:  # clean reads are byte-identical
                    assert read_key(read) == read_key(before)

    @given(clean_seed=st.integers(0, 3), corrupt_seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_zero_rates_are_an_identity(self, clean_seed, corrupt_seed):
        sample = clean_sample(clean_seed)
        profile = AdversarialProfile(
            contamination_rate=0.0, chimera_rate=0.0,
            low_quality_tail_rate=0.0, adapter_rate=0.0,
        )
        hostile = corrupt_sample(sample, profile, seed=corrupt_seed)
        assert not hostile.labels
        assert not hostile.counts
        assert ([read_key(r) for r in hostile.sample.reads]
                == [read_key(r) for r in sample.reads])


class TestHostileRealignment:
    @given(corrupt_seed=st.integers(0, 10_000),
           profile=adversarial_profiles)
    @settings(max_examples=10, deadline=None)
    def test_realignment_is_deterministic(self, corrupt_seed, profile):
        hostile = corrupt_sample(clean_sample(0), profile,
                                 seed=corrupt_seed)
        reference = hostile.sample.reference
        reads = hostile.sample.reads
        first, _ = IndelRealigner(reference).realign(reads)
        second, _ = IndelRealigner(reference).realign(reads)
        assert alignment_key(first) == alignment_key(second)

    @given(corrupt_seed=st.integers(0, 10_000),
           profile=adversarial_profiles)
    @settings(max_examples=10, deadline=None)
    def test_prefilter_is_sound_on_hostile_input(self, corrupt_seed,
                                                 profile):
        """The prefilter may only skip work, never change a decision --
        even when the site holds chimeras and contaminants it was never
        tuned for."""
        hostile = corrupt_sample(clean_sample(1), profile,
                                 seed=corrupt_seed)
        reference = hostile.sample.reference
        reads = hostile.sample.reads
        filtered, _ = IndelRealigner(
            reference, engine=EngineConfig(workers=1, batch=4,
                                           kernel="fft"),
        ).realign(reads)
        unfiltered, _ = IndelRealigner(
            reference, engine=_UnfilteredFft(),
        ).realign(reads)
        assert alignment_key(filtered) == alignment_key(unfiltered)


class _UnfilteredFft:
    """A plane that runs the fft kernel with its prefilter off."""

    def run_sites(self, sites, telemetry=None):
        return [select_and_realign(
                    site, *min_whd_grid_batched(site, prefilter=False))
                for site in sites]
