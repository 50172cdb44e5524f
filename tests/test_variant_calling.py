"""Unit tests for the somatic caller and truth evaluation."""

import numpy as np
import pytest

from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sequence import random_bases
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.genomics.variants import Variant, VariantKind
from repro.refinement.pipeline import RefinementPipeline
from repro.variants.caller import CallerConfig, SomaticCaller, VariantCall
from repro.variants.evaluation import evaluate_calls


def make_read(name, pos, seq, cigar=None, qual=35):
    return Read(name, "1", pos, seq, np.full(len(seq), qual, np.uint8),
                Cigar.parse(cigar or f"{len(seq)}M"))


@pytest.fixture
def reference():
    rng = np.random.default_rng(41)
    return ReferenceGenome.from_dict({"1": random_bases(1_000, rng)})


class TestSnpCalling:
    def test_calls_supported_snp(self, reference):
        window = reference.fetch("1", 100, 130)
        alt_base = "A" if window[15] != "A" else "C"
        mutated = window[:15] + alt_base + window[16:]
        reads = [make_read(f"r{i}", 100, mutated) for i in range(5)]
        reads += [make_read(f"c{i}", 100, window) for i in range(3)]
        calls = SomaticCaller(reference).call(reads)
        snps = [c for c in calls if c.kind is VariantKind.SNP]
        assert len(snps) == 1
        assert snps[0].pos == 115
        assert snps[0].alt == alt_base
        assert snps[0].alt_count == 5
        assert snps[0].depth == 8

    def test_low_support_filtered(self, reference):
        window = reference.fetch("1", 100, 130)
        alt_base = "A" if window[15] != "A" else "C"
        mutated = window[:15] + alt_base + window[16:]
        reads = [make_read("r", 100, mutated)]
        reads += [make_read(f"c{i}", 100, window) for i in range(9)]
        assert SomaticCaller(reference).call(reads) == []

    def test_low_quality_support_filtered(self, reference):
        window = reference.fetch("1", 100, 130)
        alt_base = "A" if window[15] != "A" else "C"
        mutated = window[:15] + alt_base + window[16:]
        reads = [make_read(f"r{i}", 100, mutated, qual=5) for i in range(5)]
        config = CallerConfig(min_quality_sum=60)
        assert SomaticCaller(reference, config).call(reads) == []


class TestIndelCalling:
    def test_calls_deletion(self, reference):
        window = reference.fetch("1", 200, 260)
        donor = window[:20] + window[25:]
        reads = [
            make_read(f"r{i}", 200, donor[:40], "20M5D20M") for i in range(4)
        ]
        calls = SomaticCaller(reference).call(reads)
        dels = [c for c in calls if c.kind is VariantKind.DELETION]
        assert len(dels) == 1
        assert dels[0].pos == 219
        assert len(dels[0].ref) - len(dels[0].alt) == 5

    def test_calls_insertion(self, reference):
        window = reference.fetch("1", 200, 240)
        donor = window[:20] + "TTT" + window[20:]
        reads = [
            make_read(f"r{i}", 200, donor[:43], "20M3I20M") for i in range(4)
        ]
        calls = SomaticCaller(reference).call(reads)
        ins = [c for c in calls if c.kind is VariantKind.INSERTION]
        assert len(ins) == 1
        assert ins[0].alt.endswith("TTT")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CallerConfig(min_depth=0)
        with pytest.raises(ValueError):
            CallerConfig(min_allele_fraction=2.0)


class TestEvaluation:
    def test_exact_snp_match(self):
        truth = [Variant("1", 50, "A", "T")]
        calls = [VariantCall("1", 50, "A", "T", 60.0, 20, 8)]
        result = evaluate_calls(calls, truth)
        assert result.precision == 1.0 and result.recall == 1.0
        assert result.f1 == 1.0

    def test_indel_position_tolerance(self):
        truth = [Variant("1", 50, "ATT", "A")]
        calls = [VariantCall("1", 55, "GCC", "G", 60.0, 20, 8)]
        result = evaluate_calls(calls, truth)
        assert result.recall == 1.0

    def test_wrong_size_indel_not_matched(self):
        truth = [Variant("1", 50, "ATT", "A")]
        calls = [VariantCall("1", 50, "ATTT", "A", 60.0, 20, 8)]
        result = evaluate_calls(calls, truth)
        assert result.true_positives == []

    def test_truth_matches_at_most_one_call(self):
        truth = [Variant("1", 50, "A", "T")]
        calls = [VariantCall("1", 50, "A", "T", 60.0, 20, 8)] * 2
        result = evaluate_calls(calls, truth)
        assert len(result.true_positives) == 1
        assert len(result.false_positives) == 1

    def test_empty_sets(self):
        result = evaluate_calls([], [])
        assert result.precision == 0.0 and result.recall == 0.0


class TestEndToEndAccuracy:
    def test_realignment_improves_precision(self):
        """The paper's motivation, closed loop: IR reduces false calls."""
        profile = SimulationProfile(indel_rate=8e-4, snp_rate=1e-3,
                                    coverage=40, hotspot_mass=0.1)
        sample = simulate_sample({"1": 25_000}, profile=profile, seed=11)
        caller = SomaticCaller(sample.reference)
        raw = evaluate_calls(caller.call(sample.reads), sample.truth_variants)
        refined = RefinementPipeline(sample.reference).run(sample.reads)
        post = evaluate_calls(caller.call(refined.reads),
                              sample.truth_variants)
        assert len(post.false_positives) < len(raw.false_positives)
        assert post.precision > raw.precision
