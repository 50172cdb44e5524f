"""Unit tests for the refinement pipeline stages."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import AcceleratedIRSystem
from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.refinement.bqsr import (
    CYCLE_BUCKET,
    BqsrModel,
    recalibrate,
)
from repro.refinement.duplicates import mark_duplicates
from repro.refinement.pipeline import RefinementPipeline
from repro.refinement.sort import sort_reads


def make_read(name, chrom, pos, seq="ACGT", cigar=None, quals=None, **kwargs):
    quals = quals if quals is not None else np.full(len(seq), 30, np.uint8)
    return Read(name, chrom, pos, seq, quals,
                Cigar.parse(cigar or f"{len(seq)}M"), **kwargs)


class TestSort:
    def test_coordinate_order(self):
        ref = ReferenceGenome.from_dict({"1": "A" * 100, "2": "A" * 100})
        reads = [
            make_read("c", "2", 5),
            make_read("a", "1", 50),
            make_read("b", "1", 5),
            Read("u", None, 0, "ACGT", np.full(4, 20, np.uint8)),
        ]
        ordered = sort_reads(reads, ref)
        assert [r.name for r in ordered] == ["b", "a", "c", "u"]

    def test_stable_for_equal_coordinates(self):
        reads = [make_read("x", "1", 5), make_read("y", "1", 5)]
        assert [r.name for r in sort_reads(reads)] == ["x", "y"]

    @given(st.lists(st.tuples(st.sampled_from(["1", "2"]),
                              st.integers(0, 80)), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_sorted_invariant(self, coords):
        reads = [make_read(f"r{i}", c, p) for i, (c, p) in enumerate(coords)]
        ordered = sort_reads(reads)
        keys = [(r.chrom, r.pos) for r in ordered]
        assert keys == sorted(keys)


class TestDuplicates:
    def test_marks_all_but_best(self):
        low = make_read("low", "1", 10, quals=np.full(4, 10, np.uint8))
        high = make_read("high", "1", 10, quals=np.full(4, 40, np.uint8))
        other = make_read("other", "1", 50)
        marked, report = mark_duplicates([low, high, other])
        by_name = {r.name: r for r in marked}
        assert by_name["low"].is_duplicate
        assert not by_name["high"].is_duplicate
        assert not by_name["other"].is_duplicate
        assert report.duplicates_marked == 1
        assert report.reads_examined == 3

    def test_strand_separates_groups(self):
        fwd = make_read("f", "1", 10)
        rev = make_read("r", "1", 10, is_reverse=True)
        _, report = mark_duplicates([fwd, rev])
        assert report.duplicates_marked == 0

    def test_soft_clip_unclipped_start_grouping(self):
        plain = make_read("p", "1", 12, seq="ACGTAC", cigar="6M")
        clipped = make_read("c", "1", 14, seq="ACGTAC", cigar="2S4M")
        _, report = mark_duplicates([plain, clipped])
        assert report.duplicates_marked == 1

    def test_unmapped_never_marked(self):
        unmapped = Read("u", None, 0, "ACGT", np.full(4, 20, np.uint8))
        marked, report = mark_duplicates([unmapped, unmapped])
        assert report.duplicates_marked == 0


class TestBqsr:
    def test_model_moves_toward_empirical_rate(self):
        model = BqsrModel()
        # Reported Q30 but empirical error rate ~10% => recalibrated ~Q10.
        errors = np.arange(2200) >= 2000
        model.observe_batch(np.full(2200, 30), np.full(2200, 5), errors)
        recal = model.quality_table()[30, 5 // CYCLE_BUCKET]
        assert 9 <= recal <= 12

    def test_unobserved_bucket_keeps_reported_quality(self):
        model = BqsrModel()
        assert model.quality_table()[25, 0] == 25

    def test_observe_batch_matches_scalar(self):
        """Four observations land in the four ``(Q, cycle bucket)``
        cells the per-base rule gives, written out: bucket ``cycle //
        32``, so cycle 40 in bucket 1 and cycle 200 in bucket 6."""
        model = BqsrModel()
        qs = np.array([30, 30, 20, 20], dtype=np.int64)
        cycles = np.array([0, 40, 0, 200])
        errors = np.array([True, False, False, True])
        model.observe_batch(qs, cycles, errors)
        observations = np.zeros_like(model.observations)
        wrong = np.zeros_like(model.errors)
        observations[30, 0] = observations[30, 1] = 1
        observations[20, 0] = observations[20, 6] = 1
        wrong[30, 0] = wrong[20, 6] = 1
        assert np.array_equal(model.observations, observations)
        assert np.array_equal(model.errors, wrong)

    def test_recalibrate_end_to_end(self):
        profile = SimulationProfile(coverage=20, base_error_rate=0.02)
        sample = simulate_sample({"1": 10_000}, profile=profile, seed=13)
        recalibrated, model = recalibrate(sample.reads, sample.reference)
        assert len(recalibrated) == len(sample.reads)
        assert (model.observations > 0).any()
        # Scores changed somewhere (the simulator's plateau is optimistic
        # relative to its injected 2% error rate).
        changed = any(
            not np.array_equal(a.quals, b.quals)
            for a, b in zip(sample.reads, recalibrated)
        )
        assert changed


class TestPipeline:
    def test_runs_all_stages_in_order(self):
        profile = SimulationProfile(indel_rate=1e-3, coverage=20)
        sample = simulate_sample({"1": 12_000}, profile=profile, seed=17)
        result = RefinementPipeline(sample.reference).run(sample.reads)
        assert [s.stage for s in result.stages] == [
            "sort", "duplicate_marking", "indel_realignment",
            "base_quality_score_recalibration",
        ]
        assert result.total_seconds > 0
        assert result.duplicate_report is not None
        assert result.realigner_report is not None
        assert len(result.reads) == len(sample.reads)
        assert abs(sum(result.fraction(s.stage) for s in result.stages)
                   - 1.0) < 1e-9

    def test_accelerated_pipeline_matches_software(self):
        profile = SimulationProfile(indel_rate=1.5e-3, coverage=20)
        sample = simulate_sample({"1": 10_000}, profile=profile, seed=19)
        soft = RefinementPipeline(sample.reference).run(sample.reads)
        system = AcceleratedIRSystem()
        hard = RefinementPipeline(sample.reference,
                                  engine=system).run(sample.reads)
        assert system.last_run.total_seconds > 0
        for a, b in zip(soft.reads, hard.reads):
            assert a.pos == b.pos and str(a.cigar) == str(b.cigar)
