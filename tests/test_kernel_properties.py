"""Deeper property tests on kernel and placement invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hdc import HammingDistanceCalculator
from repro.genomics.cigar import Cigar, CigarOp
from repro.genomics.quality import phred_from_ascii, phred_to_ascii
from repro.genomics.read import OPS, Read
from repro.genomics.samlite import format_read, parse_read
from repro.genomics.sequence import seq_to_array
from repro.realign.consensus import ObservedIndel, realigned_read_placement
from repro.realign.site import RealignmentSite
from repro.realign.whd import min_whd_grid, select_and_realign


def make_pair(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(n, 28))
    cons = draw(st.text(alphabet="ACGT", min_size=m, max_size=m))
    read = draw(st.text(alphabet="ACGT", min_size=n, max_size=n))
    quals = np.array(
        draw(st.lists(st.integers(1, 45), min_size=n, max_size=n)),
        dtype=np.uint8,
    )
    return cons, read, quals


class TestQualityScalingInvariance:
    @given(st.data(), st.integers(2, 2))
    @settings(max_examples=40, deadline=None)
    def test_scaling_qualities_preserves_kernel_decisions(self, data, factor):
        """Doubling every quality score doubles all WHDs, so the minimum
        offset, the pruning points, and the realignment decisions are
        unchanged -- the kernel depends on quality *ratios*, not
        magnitudes."""
        cons, read, quals = make_pair(data.draw)
        scaled = np.minimum(quals.astype(np.int64) * factor, 93).astype(
            np.uint8
        )
        # Only check when scaling stayed exact (no clamping hit).
        if not np.array_equal(scaled, quals * factor):
            return
        hdc = HammingDistanceCalculator(lanes=1, prune=True)
        base = hdc.compute_pair(seq_to_array(cons), seq_to_array(read), quals)
        scaled_result = hdc.compute_pair(
            seq_to_array(cons), seq_to_array(read), scaled
        )
        assert scaled_result.min_whd == factor * base.min_whd
        assert scaled_result.min_whd_idx == base.min_whd_idx
        assert scaled_result.cycles == base.cycles
        assert scaled_result.comparisons == base.comparisons


class TestSiteDecisionProperties:
    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_realigned_positions_stay_inside_reference_span(self, seed):
        from repro.workloads.generator import BENCH_PROFILE, synthesize_site

        site = synthesize_site(np.random.default_rng(seed), BENCH_PROFILE,
                               complexity=0.4)
        result = select_and_realign(site, *min_whd_grid(site))
        for j in range(site.num_reads):
            if result.realign[j]:
                offset = int(result.new_pos[j]) - site.start
                consensus = site.consensuses[result.best_cons]
                assert 0 <= offset <= len(consensus) - len(site.reads[j])
            else:
                assert result.new_pos[j] == -1

    @given(st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_duplicate_consensus_never_beats_original(self, seed):
        """Appending a copy of the reference as an extra 'alternate'
        never causes realignment (it cannot strictly improve any read)."""
        from repro.workloads.generator import BENCH_PROFILE, synthesize_site

        site = synthesize_site(np.random.default_rng(seed), BENCH_PROFILE,
                               complexity=0.4)
        ref_only = RealignmentSite(
            chrom=site.chrom, start=site.start,
            consensuses=(site.reference, site.reference),
            reads=site.reads, quals=site.quals,
        )
        result = select_and_realign(ref_only, *min_whd_grid(ref_only))
        assert result.num_realigned == 0


def placed_cigar(*args):
    """``realigned_read_placement`` with its ops columns as a checked
    :class:`Cigar` (every element length positive)."""
    pos, kinds, lengths = realigned_read_placement(*args)
    return pos, Cigar(tuple(zip(map(OPS.__getitem__, kinds), lengths)))


class TestPlacementProperties:
    @given(
        st.integers(1, 3),  # op selector bucket
        st.integers(1, 10),  # indel length
        st.integers(0, 120),  # consensus offset k
        st.integers(5, 60),  # read length
        st.integers(20, 140),  # indel window offset d
    )
    @settings(max_examples=100, deadline=None)
    def test_cigar_conserves_read_length(self, kind, length, k, n, d):
        window_start = 1_000
        if kind == 1:
            indel = None
        elif kind == 2:
            indel = ObservedIndel(window_start + d, CigarOp.DELETION, length)
        else:
            indel = ObservedIndel(window_start + d, CigarOp.INSERTION,
                                  length, inserted="A" * length)
        pos, cigar = placed_cigar(indel, window_start, k, n)
        ops = [op for op, _ in cigar]
        assert all(a is not b for a, b in zip(ops, ops[1:]))  # merged
        assert cigar.read_length == n
        assert pos >= window_start

    @given(st.integers(0, 100), st.integers(5, 40), st.integers(10, 80),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_deletion_reference_span(self, k, n, d, length):
        """A read spanning a deletion covers n + length reference bases;
        one not spanning it covers exactly n."""
        indel = ObservedIndel(1_000 + d, CigarOp.DELETION, length)
        _pos, cigar = placed_cigar(indel, 1_000, k, n)
        spans = k < d < k + n
        expected = n + length if spans else n
        assert cigar.reference_length == expected


class TestSamRoundtripProperty:
    @given(
        st.text(alphabet="ACGTN", min_size=1, max_size=40),
        st.integers(0, 10_000),
        st.lists(st.integers(0, 60), min_size=1, max_size=40),
        st.booleans(), st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_mapped_read_roundtrip(self, seq, pos, quals, reverse, dup):
        from repro.genomics.cigar import Cigar

        quals = (quals * ((len(seq) // len(quals)) + 1))[: len(seq)]
        read = Read("prop", "7", pos, seq, np.array(quals, dtype=np.uint8),
                    Cigar.matched(len(seq)), is_reverse=reverse,
                    is_duplicate=dup)
        parsed = parse_read(format_read(read))
        assert parsed.seq == read.seq
        assert parsed.pos == read.pos
        assert parsed.is_reverse == reverse
        assert parsed.is_duplicate == dup
        assert parsed.quals.tolist() == read.quals.tolist()

    @given(st.lists(st.integers(0, 93), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_quality_string_roundtrip(self, scores):
        assert phred_from_ascii(phred_to_ascii(scores)).tolist() == scores
