"""Accuracy-evaluation harness tests: outcomes, not byte-identity.

Covers the left-normalized INDEL matcher (the ambiguous-anchor cases
that used to double-count equivalent edits), the mismatch/concordance
counters, the report structures, the per-scenario accuracy gate
(realignment must *help*, with pinned truth-INDEL F1 floors), the
kernel and engine axes of the accuracy matrix (every execution path
produces the same scorecard).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import Engine, EngineConfig
from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.simulate import TruthPlacement
from repro.genomics.variants import Variant
from repro.evaluate import (
    DEFAULT_SEEDS,
    IndelRecovery,
    SCENARIO_NAMES,
    mismatch_totals,
    read_mismatches,
    run_scenario,
    truth_concordance,
)
from repro.evaluate.report import TrajectoryOutcome
from repro.variants.caller import VariantCall
from repro.variants.evaluation import (
    evaluate_calls,
    left_normalize,
)


def _call(chrom, pos, ref, alt):
    return VariantCall(chrom=chrom, pos=pos, ref=ref, alt=alt,
                       quality=50.0, depth=30, alt_count=15)


def _read(name, chrom, pos, seq, cigar):
    return Read(name=name, chrom=chrom, pos=pos, seq=seq,
                quals=np.full(len(seq), 30, dtype=np.uint8),
                cigar=Cigar.parse(cigar))


class TestLeftNormalize:
    """VCF-canonical normalization collapses equivalent INDELs."""

    #            0123456789012345
    REFERENCE = ReferenceGenome.from_dict({"chr1": "GCAAAAATCGTACGTC"})

    def test_homopolymer_deletion_any_anchor_normalizes_identically(self):
        # Deleting any single A from the AAAAA run (positions 2-6) is
        # the same edit; every anchor must normalize to the leftmost.
        canonical = left_normalize("chr1", 1, "CA", "C", self.REFERENCE)
        for anchor in range(2, 7):
            ref = self.REFERENCE.fetch("chr1", anchor - 1, anchor + 1)
            triple = left_normalize("chr1", anchor - 1, ref, ref[0],
                                    self.REFERENCE)
            assert triple == canonical, (
                f"anchor {anchor}: {triple} != canonical {canonical}"
            )
        assert canonical == (1, "CA", "C")

    def test_homopolymer_insertion_any_anchor_normalizes_identically(self):
        canonical = left_normalize("chr1", 1, "C", "CA", self.REFERENCE)
        # An extra A described mid-run ("AA"->"AAA" style anchors).
        assert left_normalize("chr1", 3, "A", "AA",
                              self.REFERENCE) == canonical
        assert left_normalize("chr1", 6, "A", "AA",
                              self.REFERENCE) == canonical
        assert canonical == (1, "C", "CA")

    def test_snp_is_returned_unchanged(self):
        assert left_normalize("chr1", 7, "T", "G",
                              self.REFERENCE) == (7, "T", "G")

    def test_non_ambiguous_indel_only_trims_padding(self):
        # TCG -> T deletion right after the homopolymer: no repeat to
        # slide through, the triple is already canonical.
        assert left_normalize("chr1", 6, "ATC", "A",
                              self.REFERENCE) == (6, "ATC", "A")

    def test_shared_leading_bases_are_trimmed(self):
        # Redundantly padded representation of the same TCG->T deletion.
        assert left_normalize("chr1", 5, "AATCG", "AAG",
                              self.REFERENCE) == (6, "ATC", "A")

    def test_dinucleotide_repeat_deletion(self):
        reference = ReferenceGenome.from_dict({"chrR": "TTACACACACGG"})
        canonical = left_normalize("chrR", 1, "TAC", "T", reference)
        # The same two-base deletion anchored one repeat unit later.
        assert left_normalize("chrR", 3, "CAC", "C", reference) == canonical
        assert left_normalize("chrR", 5, "CAC", "C", reference) == canonical


class TestIndelMatching:
    REFERENCE = ReferenceGenome.from_dict({"chr1": "GCAAAAATCGTACGTC"})

    def test_shifted_anchor_matches_with_reference(self):
        truth = [Variant("chr1", 1, "CA", "C")]
        calls = [_call("chr1", 4, "AA", "A")]  # same edit, mid-run anchor
        result = evaluate_calls(calls, truth, reference=self.REFERENCE)
        assert len(result.true_positives) == 1
        assert not result.false_positives
        assert not result.false_negatives

    def test_different_length_indel_does_not_match(self):
        truth = [Variant("chr1", 1, "CAA", "C")]  # 2-base deletion
        calls = [_call("chr1", 1, "CA", "C")]     # 1-base deletion
        result = evaluate_calls(calls, truth, reference=self.REFERENCE)
        assert not result.true_positives
        assert len(result.false_positives) == 1
        assert len(result.false_negatives) == 1

    def test_insertion_never_matches_deletion(self):
        truth = [Variant("chr1", 2, "A", "AA")]
        calls = [_call("chr1", 2, "AA", "A")]
        result = evaluate_calls(calls, truth, reference=self.REFERENCE)
        assert not result.true_positives

    def test_without_reference_falls_back_to_tolerance(self):
        truth = [Variant("chr1", 1, "CA", "C")]
        near = evaluate_calls([_call("chr1", 9, "GT", "G")], truth)
        far = evaluate_calls([_call("chr1", 100, "GT", "G")], truth)
        assert len(near.true_positives) == 1
        assert not far.true_positives

    def test_unknown_contig_falls_back_to_tolerance(self):
        truth = [Variant("chrZ", 5, "CA", "C")]
        calls = [_call("chrZ", 8, "TA", "T")]
        result = evaluate_calls(calls, truth, reference=self.REFERENCE)
        assert len(result.true_positives) == 1

    def test_snp_requires_exact_position_and_allele(self):
        truth = [Variant("chr1", 7, "T", "G")]
        assert evaluate_calls([_call("chr1", 7, "T", "G")],
                              truth).true_positives
        assert not evaluate_calls([_call("chr1", 8, "C", "G")],
                                  truth).true_positives
        assert not evaluate_calls([_call("chr1", 7, "T", "A")],
                                  truth).true_positives


class TestMismatchCounters:
    #                                        0123456789
    REFERENCE = ReferenceGenome.from_dict({"chrM": "ACGTACGTAC"})

    def test_perfect_read_has_zero_mismatches(self):
        read = _read("r0", "chrM", 2, "GTACG", "5M")
        assert read_mismatches(read, self.REFERENCE) == (0, 5)

    def test_substituted_bases_are_counted(self):
        read = _read("r1", "chrM", 2, "GTTCG", "5M")  # A->T at offset 2
        assert read_mismatches(read, self.REFERENCE) == (1, 5)

    def test_insertion_splits_aligned_span(self):
        # 3M2I3M at pos 0: ACG + TT + TAC; M bases all agree.
        read = _read("r2", "chrM", 0, "ACGTTTAC", "3M2I3M")
        assert read_mismatches(read, self.REFERENCE) == (0, 6)

    def test_deletion_advances_reference(self):
        # 3M2D3M at pos 0: ACG then skip TA then CGT.
        read = _read("r3", "chrM", 0, "ACGCGT", "3M2D3M")
        assert read_mismatches(read, self.REFERENCE) == (0, 6)

    def test_unmapped_read_contributes_nothing(self):
        unmapped = Read(name="u", chrom=None, pos=0, seq="ACGT",
                        quals=np.full(4, 30, dtype=np.uint8), cigar=None)
        assert read_mismatches(unmapped, self.REFERENCE) == (0, 0)

    def test_totals_sum_over_reads(self):
        reads = [
            _read("r0", "chrM", 2, "GTACG", "5M"),
            _read("r1", "chrM", 2, "GTTCG", "5M"),
        ]
        assert mismatch_totals(reads, self.REFERENCE) == (1, 10)


class TestTruthConcordance:
    def test_read_at_truth_placement_is_fully_concordant(self):
        read = _read("r0", "chrM", 3, "TACGT", "5M")
        placements = {"r0": TruthPlacement(pos=3, cigar="5M")}
        assert truth_concordance([read], placements) == (5, 5)

    def test_shifted_read_is_discordant(self):
        read = _read("r0", "chrM", 5, "TACGT", "5M")
        placements = {"r0": TruthPlacement(pos=3, cigar="5M")}
        assert truth_concordance([read], placements) == (0, 5)

    def test_gapped_truth_vs_gapfree_alignment_partial(self):
        # Truth: 3M2D2M at pos 0 (read bases map to ref 0,1,2,5,6).
        # Current alignment: 5M at pos 0 (bases map to 0,1,2,3,4).
        # Only the first three bases agree.
        read = _read("r0", "chrM", 0, "ACGTA", "5M")
        placements = {"r0": TruthPlacement(pos=0, cigar="3M2D2M")}
        assert truth_concordance([read], placements) == (3, 5)

    def test_reads_without_placements_are_skipped(self):
        read = _read("orphan", "chrM", 0, "ACGTA", "5M")
        assert truth_concordance([read], {}) == (0, 0)


class TestSiteOutcomes:
    def test_mates_in_one_site_are_scored_as_themselves(self):
        """Mates share a QNAME, so a site's outcome follows each read by
        its input index, not its name. Here the misaligned ``mate`` is
        realigned onto a 5-base deletion and its namesake, later in the
        input, keeps its one substituted base: the site ends with that
        one mismatch. (Keyed by name, both mates read back as the
        namesake, and the site counted its mismatch twice.)"""
        from repro.evaluate.harness import evaluate_sample
        from repro.genomics.reference import Contig
        from repro.genomics.sequence import random_bases
        from repro.genomics.simulate import SimulatedSample

        rng = np.random.default_rng(5)
        ref_seq = random_bases(3_000, rng)
        donor = ref_seq[:1500] + ref_seq[1505:]
        reads = [_read(f"ok{i}", "c", start, donor[start:start + 100],
                       f"{1500 - start}M5D{start - 1400}M")
                 for i, start in enumerate(range(1405, 1500, 9))]
        reads.append(_read("mate", "c", 1420, donor[1420:1520], "100M"))
        namesake = ref_seq[1460:1470] + ("A" if ref_seq[1470] != "A"
                                         else "C") + ref_seq[1471:1560]
        reads.append(_read("mate", "c", 1460, namesake, "100M"))
        sample = SimulatedSample(
            reads=reads, truth_variants=[],
            reference=ReferenceGenome([Contig("c", ref_seq)]))

        evaluation, after = evaluate_sample(
            "mates", sample, engine=EngineConfig(workers=1))
        assert (after[-2].pos, str(after[-2].cigar)) == (1420, "80M5D20M")
        assert after[-1] is reads[-1]
        [site] = evaluation.site_outcomes
        assert site.reads == len(reads) and site.moved == 1
        assert site.mismatch_before > 1
        assert site.mismatch_after == 1


class TestReportStructures:
    def test_indel_recovery_math(self):
        recovery = IndelRecovery(tp=8, fp=2, fn=2)
        assert recovery.precision == 0.8
        assert recovery.recall == 0.8
        assert recovery.f1 == pytest.approx(0.8)

    def test_indel_recovery_zero_denominators(self):
        empty = IndelRecovery(tp=0, fp=0, fn=0)
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0

    def test_trajectory_error_is_mean_absolute(self):
        outcome = TrajectoryOutcome(
            chrom="c", pos=1, kind="DEL", length_change=-1,
            truth=(0.4, 0.6, 0.8),
            before=(0.2, 0.3, 0.4),
            after=(0.4, 0.5, 0.8),
        )
        assert outcome.error_before == pytest.approx(0.3)
        assert outcome.error_after == pytest.approx(0.1 / 3, abs=1e-6)

    def test_report_json_is_deterministic_and_sorted(self):
        report = run_scenario("toy")
        text = report.to_json()
        payload = json.loads(text)
        assert payload["scenario"] == "toy"
        assert payload["seed"] == DEFAULT_SEEDS["toy"]
        assert text == json.dumps(payload, indent=1, sort_keys=True)

    def test_summary_mentions_scenario_and_movement(self):
        report = run_scenario("toy")
        line = report.summary()
        assert "evaluate[toy]" in line
        assert "moved" in line
        assert "F1" in line


#: Minimum acceptable post-realignment truth-INDEL F1 per scenario,
#: pinned under the measured per-sample values (toy 0.93; cohort 0.82
#: at t0, whose rising trajectory starts at low allele fractions;
#: adversarial 0.84) so only a real regression trips them -- the runs
#: are fully deterministic, so no flake margin is needed.
F1_FLOORS = {"toy": 0.90, "cohort": 0.80, "adversarial": 0.80}


@pytest.fixture(scope="module")
def reports():
    """One serial-auto report per scenario, shared across gate tests."""
    return {name: run_scenario(name, engine=EngineConfig(workers=1))
            for name in SCENARIO_NAMES}


class TestAccuracyGate:
    """Realignment must improve outcomes on every truth-bearing scenario."""

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_mismatches_strictly_drop(self, reports, scenario):
        totals = reports[scenario].totals()
        assert totals["mismatch_after"] < totals["mismatch_before"], (
            f"{scenario}: realignment did not reduce mismatch totals"
        )
        assert totals["reads_moved"] > 0

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_concordance_does_not_regress(self, reports, scenario):
        totals = reports[scenario].totals()
        assert totals["concordance_after"] >= totals["concordance_before"]
        for sample in reports[scenario].samples:
            assert sample.concordance_after >= sample.concordance_before, (
                f"{scenario}/{sample.sample}: concordance regressed"
            )

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_truth_indel_f1_floor(self, reports, scenario):
        for sample in reports[scenario].samples:
            assert sample.indel_after.f1 >= F1_FLOORS[scenario], (
                f"{scenario}/{sample.sample}: post-IR truth-INDEL F1 "
                f"{sample.indel_after.f1} under floor {F1_FLOORS[scenario]}"
            )
            assert sample.indel_after.f1 >= sample.indel_before.f1

    @pytest.mark.parametrize("scenario", ("toy", "cohort"))
    def test_every_clean_site_with_movement_improves(self, reports,
                                                     scenario):
        for sample in reports[scenario].samples:
            for site in sample.site_outcomes:
                if site.moved:
                    assert site.mismatch_after < site.mismatch_before, (
                        f"{scenario}/{sample.sample} site "
                        f"{site.chrom}:{site.start} moved {site.moved} "
                        f"reads without reducing mismatches"
                    )

    def test_adversarial_sites_improve_in_aggregate(self, reports):
        # Corrupted reads (chimeras, contaminants) can make an
        # individual site worse -- the WHD objective scores reads
        # against consensuses, not the reference -- but across all
        # realignment sites the mismatch mass must still drop.
        sites = [site for sample in reports["adversarial"].samples
                 for site in sample.site_outcomes if site.moved]
        assert sites
        before = sum(site.mismatch_before for site in sites)
        after = sum(site.mismatch_after for site in sites)
        assert after < before

    def test_cohort_trajectories_track_truth_more_closely(self, reports):
        trajectories = reports["cohort"].trajectories
        assert trajectories, "cohort scenario lost its INDEL trajectories"
        before = sum(t.error_before for t in trajectories)
        after = sum(t.error_after for t in trajectories)
        assert after <= before, (
            f"post-IR allele-frequency error {after} exceeds pre-IR "
            f"{before}"
        )

    def test_adversarial_scenario_reports_injected_counts(self, reports):
        injected = reports["adversarial"].injected
        for kind in ("contaminant", "chimera", "low_quality_tail",
                     "adapter"):
            assert injected.get(kind, 0) > 0, (
                f"adversarial scenario injected no {kind} reads -- the "
                f"workload no longer stresses that failure mode"
            )


class TestAccuracyMatrix:
    """Each kernel, and each pooled engine, emits the serial ``auto``
    scorecard.

    The byte-identity goldens pin read-level equality; this pins the
    derived *evaluation* -- if a dispatch path ever diverged, the drift
    would read as an accuracy delta, named by scenario and field. Two
    axes, not their cross product: the numpy kernels run serially, and
    ``auto`` runs on two pooled chunkings. An engine
    hands each site to the kernel it was configured with and nothing
    else, so a (kernel, engine) cell adds nothing to the two axes.
    ``scalar`` is not here: its one end-to-end run is the golden
    matrix's ``scalar-barrier`` cell (tests/test_golden.py).
    """

    @pytest.fixture(scope="class")
    def baseline(self, reports):
        return reports["toy"].to_dict()

    @pytest.mark.parametrize("kernel", ("vector", "fft", "bitpack"))
    def test_serial_kernels_match_baseline(self, baseline, kernel):
        report = run_scenario("toy", engine=EngineConfig(workers=1,
                                                         kernel=kernel))
        assert report.to_dict() == baseline, (
            f"serial kernel {kernel} produced a different evaluation"
        )

    @pytest.mark.parametrize("kernel", ("auto",))
    def test_barrier_engine_matches_baseline(self, baseline, kernel):
        # The pool queues every chunk at once and returns when all are
        # done: the barrier schedule.
        engine = Engine(EngineConfig(workers=2, batch=3, kernel=kernel))
        try:
            report = run_scenario("toy", engine=engine)
        finally:
            engine.close()
        assert report.to_dict() == baseline, (
            f"barrier engine with kernel {kernel} produced a different "
            f"evaluation"
        )

    @pytest.mark.parametrize("kernel", ("auto",))
    def test_streaming_engine_matches_baseline(self, baseline, kernel):
        # One-site chunks on two units.
        engine = Engine(EngineConfig(workers=2, batch=1, kernel=kernel))
        try:
            report = run_scenario("toy", engine=engine)
        finally:
            engine.close()
        assert report.to_dict() == baseline, (
            f"streaming engine with kernel {kernel} produced a different "
            f"evaluation"
        )


class TestEvaluateCli:
    def test_emits_summary_and_report(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        out = tmp_path / "report.json"
        assert cli_main([
            "evaluate", "--scenario", "toy", "--check",
            "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "evaluate[toy]" in printed
        payload = json.loads(out.read_text())
        assert payload == run_scenario("toy").to_dict()

    def test_engine_flags_do_not_change_the_report(self, tmp_path):
        from repro.__main__ import main as cli_main

        serial = tmp_path / "serial.json"
        streamed = tmp_path / "streamed.json"
        assert cli_main(["evaluate", "--scenario", "toy", "--workers", "1",
                         "--out", str(serial)]) == 0
        assert cli_main(["evaluate", "--scenario", "toy", "--workers", "2",
                         "--out", str(streamed)]) == 0
        assert serial.read_text() == streamed.read_text()

    def test_bad_flags_rejected(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["evaluate", "--scenario", "toy",
                         "--workers", "0"]) == 2
        assert "--workers and --batch" in capsys.readouterr().err
