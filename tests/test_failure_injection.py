"""Failure injection and robustness properties.

Feeds the system malformed, hostile, or boundary inputs and checks that
every layer fails loudly (typed exceptions) or degrades gracefully --
never silently corrupts results.
"""

import numpy as np
import pytest

from repro.core.buffers import BufferError, RecordBuffer
from repro.core.host import HostPlanError, plan_targets
from repro.core.isa import IsaError, ir_set_addr, BufferId
from repro.core.router import RoccCommandRouter, RouterError
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.genomics.quality import QualityError, phred_from_ascii
from repro.genomics.samlite import SamError, parse_read
from repro.genomics.sequence import SequenceError, validate_bases
from repro.hw.axi import MmioRegisterFile, QueueFullError
from repro.hw.memory import DdrChannelModel
from repro.realign.realigner import IndelRealigner
from repro.realign.site import RealignmentSite, SiteError, SiteLimits
from repro.genomics.reference import ReferenceGenome
from repro.genomics.read import Read
from repro.genomics.cigar import Cigar
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


class TestMalformedTextInputs:
    def test_sam_with_corrupt_flag(self):
        with pytest.raises(SamError):
            parse_read("r\tNaN\t1\t10\t60\t4M\t*\t0\t0\tACGT\t!!!!")

    def test_quality_string_with_control_chars(self):
        with pytest.raises(QualityError):
            phred_from_ascii("abc\x07")

    def test_sequence_with_unicode(self):
        with pytest.raises(SequenceError, match="'☃' at position 3"):
            validate_bases("ACG☃")


class TestSiteBoundaryViolations:
    def test_255_reads_accepted_257_rejected(self):
        limits = SiteLimits()
        cons = ("A" * 16, "A" * 15 + "C")
        ok_reads = tuple("AAAA" for _ in range(limits.max_reads))
        ok_quals = tuple(np.full(4, 1, np.uint8) for _ in ok_reads)
        RealignmentSite("1", 0, cons, ok_reads, ok_quals)
        bad_reads = ok_reads + ("AAAA",)
        bad_quals = ok_quals + (np.full(4, 1, np.uint8),)
        with pytest.raises(SiteError):
            RealignmentSite("1", 0, cons, bad_reads, bad_quals)

    def test_consensus_exactly_at_2048(self):
        cons = ("A" * 2048, "A" * 2047 + "C")
        site = RealignmentSite("1", 0, cons, ("A" * 8,),
                               (np.full(8, 1, np.uint8),))
        assert site.offsets(0, 0) == 2041

    def test_buffer_rejects_oversized_record(self):
        buffer = RecordBuffer("x", num_slots=1, slot_bytes=32)
        with pytest.raises(BufferError):
            buffer.load_slot(0, np.zeros(64, np.uint8))


class TestProtocolViolations:
    def test_response_flood_fills_mmio_queue(self):
        mmio = MmioRegisterFile(response_depth=4)
        for value in range(4):
            mmio.push_response(value)
        with pytest.raises(QueueFullError):
            mmio.push_response(99)
        # Draining restores service.
        assert mmio.poll_response() == 0
        mmio.push_response(99)

    def test_router_rejects_address_for_ghost_unit(self):
        router = RoccCommandRouter(num_units=2)
        with pytest.raises(RouterError):
            router.dispatch(ir_set_addr(3, BufferId.READ_BASES, 0))

    def test_isa_rejects_negative_operand(self):
        with pytest.raises(IsaError):
            ir_set_addr(0, BufferId.READ_BASES, -4)


class TestCapacityPressure:
    def test_host_plan_overflows_small_ddr(self):
        rng = np.random.default_rng(0)
        sites = [synthesize_site(rng, BENCH_PROFILE) for _ in range(4)]
        with pytest.raises(HostPlanError):
            plan_targets(sites, ddr=DdrChannelModel(capacity_bytes=1024))

    def test_empty_site_list_is_fine(self):
        run = AcceleratedIRSystem(SystemConfig.iracc()).run([])
        assert run.total_seconds == 0.0
        assert run.unit_results == []


class TestRealignerRobustness:
    @pytest.fixture
    def reference(self):
        rng = np.random.default_rng(3)
        return ReferenceGenome.random({"1": 4_000}, rng)

    def test_empty_read_set(self, reference):
        updated, report = IndelRealigner(reference).realign([])
        assert updated == []
        assert report.targets_identified == 0

    def test_all_unmapped_reads(self, reference):
        reads = [
            Read(f"u{i}", None, 0, "ACGT", np.full(4, 20, np.uint8))
            for i in range(5)
        ]
        updated, report = IndelRealigner(reference).realign(reads)
        assert [r.name for r in updated] == [r.name for r in reads]
        assert report.reads_realigned == 0

    def test_indel_at_contig_edge(self, reference):
        """An INDEL read hugging position 0 must not crash windowing."""
        window = reference.fetch("1", 0, 50)
        read = Read("edge", "1", 0, window[:48], np.full(48, 30, np.uint8),
                    Cigar.parse("20M2D28M"))
        updated, _report = IndelRealigner(reference).realign([read])
        assert len(updated) == 1

    def test_indel_at_contig_end(self, reference):
        length = reference.length("1")
        start = length - 50
        seq = reference.fetch("1", start, length - 2)
        read = Read("tail", "1", start, seq, np.full(len(seq), 30, np.uint8),
                    Cigar.parse(f"30M2D{len(seq) - 30}M"))
        updated, _report = IndelRealigner(reference).realign([read])
        assert len(updated) == 1


class TestIdempotence:
    def test_second_realignment_pass_changes_nothing(self):
        """After IR, alignments are consistent: a second pass is a no-op
        on read placements (the paper's error-correction semantics)."""
        rng = np.random.default_rng(8)
        from repro.genomics.sequence import random_bases
        from repro.genomics.reference import Contig

        ref_seq = random_bases(3_000, rng)
        reference = ReferenceGenome([Contig("c", ref_seq)])
        donor = ref_seq[:1500] + ref_seq[1504:]
        reads = []
        for i, start in enumerate(range(1420, 1500, 6)):
            seq = donor[start : start + 90]
            k = 1500 - start
            cigar = (Cigar.parse(f"{k}M4D{90 - k}M") if i % 2 == 0
                     else Cigar.parse("90M"))
            reads.append(Read(f"r{i}", "c", start, seq,
                              np.full(90, 30, np.uint8), cigar))
        realigner = IndelRealigner(reference)
        once, _ = realigner.realign(reads)
        twice, _ = realigner.realign(once)
        for a, b in zip(once, twice):
            assert a.pos == b.pos
            assert str(a.cigar) == str(b.cigar)
