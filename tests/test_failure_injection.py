"""Failure injection and robustness properties.

Feeds the system malformed, hostile, or boundary inputs and checks that
every layer fails loudly (typed exceptions) or degrades gracefully --
never silently corrupts results.
"""

import functools
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffers import BufferError, RecordBuffer
from repro.core.host import HostPlanError, plan_targets
from repro.core.isa import IsaError, ir_set_addr, BufferId
from repro.core.router import RoccCommandRouter, RouterError
from repro.core.scheduler import ScheduledTarget
from repro.core.system import (
    AcceleratedIRSystem,
    AcceleratedRealigner,
    SystemConfig,
)
from repro.genomics.fastq import FastqError, parse_fastq
from repro.genomics.quality import QualityError, phred_from_ascii
from repro.genomics.samlite import SamError, parse_read
from repro.genomics.sequence import SequenceError, validate_bases
from repro.hw.axi import MmioRegisterFile, QueueFullError
from repro.hw.memory import DdrChannelModel
from repro.realign.realigner import IndelRealigner, apply_realignment
from repro.realign.site import RealignmentSite, SiteError, SiteLimits
from repro.genomics.reference import ReferenceGenome
from repro.genomics.read import Read
from repro.genomics.cigar import Cigar
from repro.workloads.generator import BENCH_PROFILE, synthesize_site


class TestMalformedTextInputs:
    def test_binary_garbage_in_fastq(self):
        with pytest.raises((FastqError, QualityError, SequenceError)):
            list(parse_fastq(io.StringIO("@r\n\x00\x01\n+\nxx\n")))

    def test_truncated_fastq_record(self):
        # Header with a sequence but no separator/qualities: loud error.
        with pytest.raises(FastqError):
            list(parse_fastq(io.StringIO("@r\nACGT\n")))
        with pytest.raises((FastqError, QualityError)):
            list(parse_fastq(io.StringIO("@r\nACGT\nplus\n!!!!\n")))

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
    def test_command_flood_fills_mmio_queue(self):
        mmio = MmioRegisterFile(command_depth=4)
        for value in range(4):
            mmio.push_command(value)
        with pytest.raises(QueueFullError):
            mmio.push_command(99)
        # Draining restores service.
        assert mmio.pop_command() == 0
        mmio.push_command(99)

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


class TestChaosProperties:
    """Hypothesis properties for the fault-injection layer: under *any*
    seeded FaultPlan, the recovery scheduler preserves the timeline
    invariants of the fault-free scheduler, and the realigner's output
    stays bit-identical to a fault-free run."""

    targets_strategy = st.lists(
        st.tuples(st.integers(0, 20), st.integers(1, 500)), min_size=1,
        max_size=40,
    ).map(lambda pairs: [
        ScheduledTarget(index=i, transfer_cycles=t, compute_cycles=c)
        for i, (t, c) in enumerate(pairs)
    ])

    @given(targets_strategy, st.integers(1, 8), st.integers(0, 2**31 - 1),
           st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_recovery_preserves_timeline_invariants(
        self, targets, num_units, chaos_seed, rate
    ):
        from repro.resilience.policy import ResilienceConfig
        from repro.resilience.recovery import schedule_with_recovery

        config = ResilienceConfig.chaos(chaos_seed, rate)
        result = schedule_with_recovery(targets, num_units, config)
        # Every scheduled position completes exactly once, hw or sw.
        assert sorted(result.completions) == list(range(len(targets)))
        assert set(result.completions.values()) <= {"hw", "sw"}
        # Spans on one unit never overlap (failed attempts included),
        # and the host's software timeline is serial too.
        by_unit = {}
        for span in result.spans:
            by_unit.setdefault(span.unit, []).append(span)
        by_unit.setdefault(-1, []).extend(result.fallback_spans)
        for spans in by_unit.values():
            spans.sort(key=lambda s: s.start)
            for left, right in zip(spans, spans[1:]):
                assert left.end <= right.start
        # The makespan covers every span on every timeline.
        ends = [s.end for s in result.spans + result.fallback_spans]
        assert result.makespan == max(ends, default=0)
        # The ledger is internally consistent.
        assert len(result.events) == result.counters.total_injected
        assert len(result.quarantined_units) == \
            result.counters.quarantined_units

    @given(targets_strategy, st.integers(1, 8), st.integers(0, 2**31 - 1),
           st.floats(0.0, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_recovery_is_deterministic(
        self, targets, num_units, chaos_seed, rate
    ):
        from repro.resilience.policy import ResilienceConfig
        from repro.resilience.recovery import schedule_with_recovery

        config = ResilienceConfig.chaos(chaos_seed, rate)
        first = schedule_with_recovery(targets, num_units, config)
        second = schedule_with_recovery(targets, num_units, config)
        assert first.spans == second.spans
        assert first.fallback_spans == second.fallback_spans
        assert first.completions == second.completions
        assert first.makespan == second.makespan

    @given(targets_strategy, st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_fault_free_plan_is_exactly_schedule_async(
        self, targets, num_units
    ):
        from repro.core.scheduler import schedule_async
        from repro.resilience.faults import FaultPlan
        from repro.resilience.policy import ResilienceConfig
        from repro.resilience.recovery import schedule_with_recovery

        base = schedule_async(targets, num_units)
        resilient = schedule_with_recovery(
            targets, num_units, ResilienceConfig(plan=FaultPlan.none())
        )
        assert resilient.spans == base.spans
        assert resilient.makespan == base.makespan
        assert resilient.transfer_cycles_total == base.transfer_cycles_total
        assert resilient.counters.total_injected == 0

    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.8))
    @settings(max_examples=8, deadline=None)
    def test_realignment_bit_identical_under_chaos(self, chaos_seed, rate):
        """The degradation guarantee: whatever the FaultPlan does --
        including targets that drain to the software fallback -- the
        realigned reads are bit-identical to the fault-free run."""
        from dataclasses import replace

        from repro.resilience.policy import ResilienceConfig

        reference, reads, clean = _chaos_baseline()
        config = replace(SystemConfig.iracc(),
                         resilience=ResilienceConfig.chaos(chaos_seed, rate))
        chaotic, run, _report = AcceleratedRealigner(
            reference, config
        ).realign(reads)
        assert run.resilience is not None
        assert len(chaotic) == len(clean)
        for ours, theirs in zip(chaotic, clean):
            assert ours.name == theirs.name
            assert ours.pos == theirs.pos
            assert str(ours.cigar) == str(theirs.cigar)
            assert ours.seq == theirs.seq


@functools.lru_cache(maxsize=1)
def _chaos_baseline():
    """A small simulated sample plus its fault-free realignment."""
    from repro.genomics.simulate import simulate_sample

    sample = simulate_sample({"c": 6_000}, seed=3)
    clean, _run, _report = AcceleratedRealigner(
        sample.reference, SystemConfig.iracc()
    ).realign(sample.reads)
    return sample.reference, sample.reads, clean
