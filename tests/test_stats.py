"""Unit tests for read-set statistics and repo smoke checks."""

import py_compile
from pathlib import Path

import numpy as np
import pytest

from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.genomics.stats import compute_stats, format_stats


def make_read(name, pos, seq, cigar, chrom="1", dup=False):
    return Read(name, chrom, pos, seq, np.full(len(seq), 30, np.uint8),
                Cigar.parse(cigar), is_duplicate=dup)


class TestComputeStats:
    @pytest.fixture
    def reference(self):
        return ReferenceGenome.from_dict({"1": "ACGT" * 25})

    def test_basic_counters(self, reference):
        reads = [
            make_read("a", 0, "ACGT", "4M"),
            make_read("b", 4, "ACTT", "4M"),  # one mismatch at pos 6
            make_read("dup", 0, "ACGT", "4M", dup=True),
            Read("u", None, 0, "ACGT", np.full(4, 20, np.uint8)),
        ]
        stats = compute_stats(reads, reference)
        assert stats.total_reads == 4
        assert stats.mapped_reads == 3
        assert stats.duplicate_reads == 1
        assert stats.mapped_fraction == 0.75
        assert stats.aligned_bases == 12
        assert stats.mismatched_bases == 1
        assert stats.mismatch_rate == pytest.approx(1 / 12)

    def test_cigar_composition_and_indels(self, reference):
        reads = [make_read("a", 0, "ACGTAC", "2M2I2M"),
                 make_read("b", 10, "GTAC", "2M3D2M")]
        stats = compute_stats(reads, reference)
        assert stats.cigar_ops == {"M": 8, "I": 2, "D": 3}
        assert stats.reads_with_indels == 2
        assert stats.indel_read_fraction == 1.0

    def test_coverage(self, reference):
        reads = [make_read(f"r{i}", 0, "ACGT" * 25, "100M")
                 for i in range(5)]
        stats = compute_stats(reads, reference)
        assert stats.coverage_by_contig["1"] == pytest.approx(5.0)
        assert stats.mean_coverage == pytest.approx(5.0)

    def test_empty(self):
        stats = compute_stats([])
        assert stats.mapped_fraction == 0.0
        assert stats.mismatch_rate == 0.0
        assert stats.mean_quality == 0.0

    def test_simulator_hits_operating_point(self):
        profile = SimulationProfile(coverage=30, base_error_rate=0.01,
                                    snp_rate=1e-9, indel_rate=1e-9,
                                    hotspot_mass=0.0)
        sample = simulate_sample({"1": 40_000}, profile=profile, seed=8)
        stats = compute_stats(sample.reads, sample.reference)
        assert stats.mean_coverage == pytest.approx(30, rel=0.05)
        # With no variants, mismatches are sequencing errors only.
        assert stats.mismatch_rate == pytest.approx(0.01, rel=0.2)

    def test_format(self, reference):
        stats = compute_stats([make_read("a", 0, "ACGT", "4M")], reference)
        text = format_stats(stats)
        assert "mismatch rate" in text
        assert "coverage" in text


class TestRepoSmoke:
    def test_every_example_compiles(self):
        examples = sorted(Path("examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_every_benchmark_compiles(self):
        benches = sorted(Path("benchmarks").glob("bench_*.py"))
        assert len(benches) >= 13
        for path in benches:
            py_compile.compile(str(path), doraise=True)
