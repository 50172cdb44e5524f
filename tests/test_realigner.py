"""Integration tests for the software INDEL realigner."""

import numpy as np
import pytest

from repro.align.pileup import pileup
from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import Contig, ReferenceGenome
from repro.genomics.sequence import random_bases
from repro.realign.realigner import IndelRealigner


def full_quals(n):
    return np.full(n, 30, np.uint8)


@pytest.fixture
def deletion_scenario():
    """A 5-base deletion at position 1500 with mixed alignments."""
    rng = np.random.default_rng(5)
    ref_seq = random_bases(3_000, rng)
    reference = ReferenceGenome([Contig("c", ref_seq)])
    donor = ref_seq[:1500] + ref_seq[1505:]
    reads = []
    L = 100
    for i, start in enumerate(range(1405, 1500, 7)):
        seq = donor[start : start + L]
        k = 1500 - start
        if i % 3 == 0:
            cigar = Cigar.parse(f"{k}M5D{L - k}M")
            reads.append(Read(f"ok{i}", "c", start, seq, full_quals(L), cigar))
        else:
            reads.append(Read(f"bad{i}", "c", start, seq, full_quals(L),
                              Cigar.parse(f"{L}M")))
    for i, start in enumerate(range(1300, 1700, 11)):
        seq = ref_seq[start : start + L]
        reads.append(Read(f"ref{i}", "c", start, seq, full_quals(L),
                          Cigar.parse(f"{L}M")))
    return reference, ref_seq, reads


class TestDeletionRealignment:
    def test_misaligned_reads_get_exact_placement(self, deletion_scenario):
        reference, ref_seq, reads = deletion_scenario
        updated, report = IndelRealigner(reference).realign(reads)
        assert report.reads_realigned > 0
        for orig, new in zip(reads, updated):
            if orig.name.startswith("bad"):
                k = 1500 - orig.pos
                assert new.pos == orig.pos
                assert str(new.cigar) == f"{k}M5D{100 - k}M"

    def test_no_residual_mismatches(self, deletion_scenario):
        reference, ref_seq, reads = deletion_scenario
        updated, _ = IndelRealigner(reference).realign(reads)
        columns = pileup(updated)
        for (chrom, pos), column in columns.items():
            assert all(base == ref_seq[pos] for base in column.bases), \
                f"residual mismatch at {pos}"

    def test_clean_reads_untouched(self, deletion_scenario):
        reference, _ref_seq, reads = deletion_scenario
        updated, _ = IndelRealigner(reference).realign(reads)
        for orig, new in zip(reads, updated):
            if orig.name.startswith("ref"):
                assert new.pos == orig.pos
                assert str(new.cigar) == str(orig.cigar)

    def test_report_statistics(self, deletion_scenario):
        reference, _ref_seq, reads = deletion_scenario
        _, report = IndelRealigner(reference).realign(reads)
        assert report.targets_identified >= 1
        assert report.sites_built >= 1
        assert report.reads_examined == len(reads)
        assert report.unpruned_comparisons > 0
        assert 1 <= report.reads_moved <= report.reads_realigned


class TestInsertionRealignment:
    def test_insertion_placement(self):
        rng = np.random.default_rng(6)
        ref_seq = random_bases(3_000, rng)
        reference = ReferenceGenome([Contig("c", ref_seq)])
        ins = "TTTTT"
        donor = ref_seq[:1500] + ins + ref_seq[1500:]
        reads = []
        L = 100
        for i, start in enumerate(range(1406, 1495, 7)):
            seq = donor[start : start + L]
            k = 1500 - start
            if i % 3 == 0:
                cigar = Cigar.parse(f"{k}M5I{L - k - 5}M")
                reads.append(Read(f"ok{i}", "c", start, seq, full_quals(L),
                                  cigar))
            else:
                reads.append(Read(f"bad{i}", "c", start, seq, full_quals(L),
                                  Cigar.parse(f"{L}M")))
        updated, report = IndelRealigner(reference).realign(reads)
        assert report.reads_realigned > 0
        for orig, new in zip(reads, updated):
            if orig.name.startswith("bad"):
                k = 1500 - orig.pos
                assert new.pos == orig.pos
                assert str(new.cigar) == f"{k}M5I{95 - k}M"


class TestVectorizedParity:
    def test_scalar_kernel_gives_identical_reads(self, deletion_scenario):
        reference, _ref_seq, reads = deletion_scenario
        fast, _ = IndelRealigner(reference, kernel="vector").realign(reads)
        slow, _ = IndelRealigner(reference, kernel="scalar").realign(reads)
        for a, b in zip(fast, slow):
            assert a.pos == b.pos and str(a.cigar) == str(b.cigar)


class TestOneConsensusGenerator:
    def test_consensus_strategy_is_not_a_parameter(self, deletion_scenario):
        """``build_site`` is the one generator (EXPERIMENTS.md,
        "Consensus strategy"); even the old default value is refused."""
        reference, _ref_seq, _reads = deletion_scenario
        with pytest.raises(TypeError, match="consensus_strategy"):
            IndelRealigner(reference, consensus_strategy="observed")


class TestKernelSettings:
    def test_an_engine_and_a_kernel_conflict(self, deletion_scenario):
        """An engine runs its own kernel: a second one named beside it
        is an error, not silently dropped. ``kernel=`` alone still
        chooses the default engine's kernel."""
        from repro.engine import EngineConfig

        reference, _ref_seq, reads = deletion_scenario
        with pytest.raises(ValueError, match="conflicts with engine"):
            IndelRealigner(reference,
                           engine=EngineConfig(kernel="fft", workers=1),
                           kernel="scalar")
        realigner = IndelRealigner(reference, kernel="scalar")
        assert realigner._engine_instance().config.kernel == "scalar"
        assert realigner.realign(reads)[0] == \
            IndelRealigner(reference).realign(reads)[0]


class TestSharedReadNames:
    """Mates share a QNAME: claims and updates follow the read's input
    index, never its name. (Name-keyed, a far-away read came back
    replaced wholesale by its realigned namesake.)"""

    @pytest.mark.parametrize("entry", ["software", "accelerated", "served"])
    def test_each_namesake_comes_back_as_itself(self, deletion_scenario,
                                                entry):
        reference, ref_seq, reads = deletion_scenario
        index = next(i for i, r in enumerate(reads) if r.name == "bad1")
        realigned = reads[index]
        bystander = Read("bad1", "c", 200, ref_seq[200:300],
                         full_quals(100), Cigar.parse("100M"))
        reads = reads + [bystander]
        if entry == "software":
            updated, _report = IndelRealigner(reference).realign(reads)
        elif entry == "accelerated":
            from repro.core.system import AcceleratedIRSystem

            updated, _report = IndelRealigner(
                reference, engine=AcceleratedIRSystem()).realign(reads)
        else:
            from repro.engine import Engine, EngineConfig
            from repro.serve.jobs import apply_site_results

            _targets, windows = IndelRealigner(reference).build_sites(reads)
            with Engine(EngineConfig()) as engine:
                results = engine.run_sites([w.site for w in windows])
            updated = apply_site_results(reads, windows, results)
        assert updated[-1] is bystander
        moved = updated[index]
        assert (moved.name, moved.seq) == (realigned.name, realigned.seq)
        assert moved.pos == realigned.pos and "5D" in str(moved.cigar)
