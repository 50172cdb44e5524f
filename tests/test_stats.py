"""The simulator's operating point, and repo smoke checks."""

import py_compile
from pathlib import Path

import pytest

from repro.genomics.cigar import CigarOp
from repro.genomics.simulate import SimulationProfile, simulate_sample


class TestComputeStats:
    def test_simulator_hits_operating_point(self):
        profile = SimulationProfile(coverage=30, base_error_rate=0.01,
                                    snp_rate=1e-9, indel_rate=1e-9,
                                    hotspot_mass=0.0)
        sample = simulate_sample({"1": 40_000}, profile=profile, seed=8)
        aligned = mismatched = 0
        for read in sample.reads:
            if not read.is_mapped:
                continue
            read_offset, ref_pos = 0, read.pos
            for op, length in read.cigar:
                if op is CigarOp.MATCH:
                    window = sample.reference.fetch(read.chrom, ref_pos,
                                                    ref_pos + length)
                    segment = read.seq[read_offset:read_offset + length]
                    aligned += length
                    mismatched += sum(a != b for a, b in zip(segment, window))
                if op.consumes_read:
                    read_offset += length
                if op.consumes_reference:
                    ref_pos += length
        assert aligned / 40_000 == pytest.approx(30, rel=0.05)
        # With no variants, mismatches are sequencing errors only.
        assert mismatched / aligned == pytest.approx(0.01, rel=0.2)


class TestRepoSmoke:
    def test_every_example_compiles(self):
        examples = sorted(Path("examples").glob("*.py"))
        assert len(examples) >= 4
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_every_benchmark_compiles(self):
        benches = sorted(Path("benchmarks").glob("bench_*.py"))
        assert len(benches) >= 13
        for path in benches:
            py_compile.compile(str(path), doraise=True)
