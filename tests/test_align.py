"""Unit tests for the primary-alignment substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.pileup import max_depth, pileup
from repro.align.seed_extend import AlignerConfig, SeedAndExtendAligner
from repro.align.smith_waterman import (
    ScoringScheme,
    alignment_to_read_cigar,
    smith_waterman,
)
from repro.align.suffix_array import SuffixArray
from repro.genomics.cigar import Cigar, CigarOp
from repro.genomics.fastq import FastqRecord
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sequence import random_bases

bases = st.text(alphabet="ACGT", min_size=1, max_size=60)


class TestSmithWaterman:
    def test_exact_match(self):
        result = smith_waterman("ACGT", "TTACGTTT")
        assert result.score == 4 * 2
        assert result.target_start == 2
        assert str(result.cigar) == "4M"

    def test_mismatch_in_middle(self):
        result = smith_waterman("ACGTACGT", "ACGTTCGT")
        assert result.score == 8 * 2 - 2 - 3  # 7 matches, 1 mismatch

    def test_deletion_from_query(self):
        # Query lacks 2 target bases; flanks long enough that the gapped
        # alignment beats any ungapped local alignment.
        target = "AAGAAGAAGG" + "CC" + "TTGTTGTTGG"
        query = "AAGAAGAAGG" + "TTGTTGTTGG"
        result = smith_waterman(query, target)
        assert str(result.cigar) == "10M2D10M"
        scheme = ScoringScheme()
        assert result.score == 20 * 2 + scheme.gap_cost(2)

    def test_insertion_in_query(self):
        target = "AAGAAGAAGG" + "TTGTTGTTGG"
        query = "AAGAAGAAGG" + "CC" + "TTGTTGTTGG"
        result = smith_waterman(query, target)
        assert str(result.cigar) == "10M2I10M"

    def test_affine_gaps_keep_indels_contiguous(self):
        # A 5-base deletion stays one run even when interior bases of the
        # deleted region happen to match (the linear-gap splitting
        # artifact).
        target = "ACGGTACCATGG" + "TATGA" + "CCTTAGACGGTA"
        query = "ACGGTACCATGG" + "CCTTAGACGGTA"
        result = smith_waterman(query, target)
        assert str(result.cigar) == "12M5D12M"
        assert result.cigar.indels() == [(12, CigarOp.DELETION, 5)]

    def test_gap_cost_validation(self):
        with pytest.raises(ValueError):
            ScoringScheme().gap_cost(0)

    def test_no_alignment(self):
        result = smith_waterman("AAAA", "TTTT")
        assert result.score == 0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            smith_waterman("", "ACGT")

    def test_scoring_validation(self):
        with pytest.raises(ValueError):
            ScoringScheme(match=0)
        with pytest.raises(ValueError):
            ScoringScheme(mismatch=1)

    def test_soft_clip_expansion(self):
        result = smith_waterman("TTACGTTT"[2:6], "ACGT")
        cigar = alignment_to_read_cigar(result, 4)
        assert cigar.read_length == 4

    @given(bases)
    @settings(max_examples=30, deadline=None)
    def test_self_alignment_is_perfect(self, seq):
        result = smith_waterman(seq, seq)
        assert result.score == 2 * len(seq)
        assert str(result.cigar) == f"{len(seq)}M"

    @given(bases, bases)
    @settings(max_examples=30, deadline=None)
    def test_score_non_negative_and_cigar_consistent(self, q, t):
        result = smith_waterman(q, t)
        assert result.score >= 0
        assert result.cigar.read_length == result.query_span


class TestSuffixArray:
    def test_find_all_occurrences(self):
        sa = SuffixArray.build("ABRACADABRA".replace("B", "C"))
        # Text: ACRACADACRA
        assert sa.find("ACRA") == [0, 7]

    def test_count(self):
        sa = SuffixArray.build("AAAA")
        assert sa.count("AA") == 3

    def test_missing_pattern(self):
        sa = SuffixArray.build("ACGTACGT")
        assert sa.find("GGG") == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            SuffixArray.build("ACGT").find("")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            SuffixArray.build("")

    @given(st.text(alphabet="ACGT", min_size=1, max_size=80),
           st.text(alphabet="ACGT", min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_search(self, text, pattern):
        sa = SuffixArray.build(text)
        naive = [
            i for i in range(len(text) - len(pattern) + 1)
            if text[i : i + len(pattern)] == pattern
        ]
        assert sa.find(pattern) == naive

    def test_suffix_order_is_lexicographic(self):
        text = random_bases(200, np.random.default_rng(0))
        sa = SuffixArray.build(text)
        suffixes = [text[i:] for i in sa.suffixes]
        assert suffixes == sorted(suffixes)


class TestSeedAndExtend:
    @pytest.fixture
    def reference(self):
        rng = np.random.default_rng(12)
        return ReferenceGenome.random({"1": 2_000, "2": 1_500}, rng)

    def test_aligns_exact_reads(self, reference):
        aligner = SeedAndExtendAligner(reference)
        rng = np.random.default_rng(5)
        for _ in range(10):
            chrom = ["1", "2"][int(rng.integers(0, 2))]
            start = int(rng.integers(0, reference.length(chrom) - 100))
            seq = reference.fetch(chrom, start, start + 100)
            record = FastqRecord(f"q{start}", seq, np.full(100, 35, np.uint8))
            read = aligner.align_record(record)
            assert read.is_mapped
            assert read.chrom == chrom
            assert read.pos == start
            assert str(read.cigar) == "100M"

    def test_aligns_read_with_snp(self, reference):
        aligner = SeedAndExtendAligner(reference)
        seq = list(reference.fetch("1", 500, 600))
        seq[50] = "A" if seq[50] != "A" else "C"
        read = aligner.align_record(
            FastqRecord("m", "".join(seq), np.full(100, 35, np.uint8))
        )
        assert read.is_mapped and read.pos == 500

    def test_garbage_read_unmapped(self, reference):
        read = SeedAndExtendAligner(reference).align_record(
            FastqRecord("g", "AT" * 50, np.full(100, 35, np.uint8))
        )
        assert not read.is_mapped
        assert read.mapq == 0

    def test_stats_accumulate(self, reference):
        aligner = SeedAndExtendAligner(reference)
        seq = reference.fetch("1", 100, 200)
        aligner.align([FastqRecord("a", seq, np.full(100, 35, np.uint8))])
        assert aligner.stats.reads_total == 1
        assert aligner.stats.reads_aligned == 1
        assert aligner.stats.seeds_generated > 0
        assert aligner.stats.dp_cells > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlignerConfig(seed_length=0)
        with pytest.raises(ValueError):
            AlignerConfig(min_score_fraction=0.0)


class TestPileup:
    def make_read(self, name, pos, seq, cigar, dup=False):
        return Read(name, "1", pos, seq, np.full(len(seq), 25, np.uint8),
                    Cigar.parse(cigar), is_duplicate=dup)

    def test_depth_counting(self):
        reads = [
            self.make_read("a", 0, "ACGT", "4M"),
            self.make_read("b", 2, "GTTT", "4M"),
        ]
        columns = pileup(reads)
        assert columns[("1", 2)].depth == 2
        assert columns[("1", 5)].depth == 1
        assert max_depth(columns) == 2

    def test_insertion_attaches_to_previous_column(self):
        reads = [self.make_read("a", 10, "AACCGG", "2M2I2M")]
        columns = pileup(reads)
        assert columns[("1", 11)].insertions == ["CC"]

    def test_deletion_recorded(self):
        reads = [self.make_read("a", 10, "AAGG", "2M3D2M")]
        columns = pileup(reads)
        assert columns[("1", 11)].deletions == [3]
        # Deleted positions have no base evidence.
        assert ("1", 12) not in columns

    def test_soft_clips_excluded(self):
        reads = [self.make_read("a", 10, "AACC", "2S2M")]
        columns = pileup(reads)
        assert ("1", 8) not in columns
        assert columns[("1", 10)].bases == ["C"]

    def test_duplicates_skipped(self):
        reads = [self.make_read("a", 0, "ACGT", "4M", dup=True)]
        assert pileup(reads) == {}
        assert pileup(reads, skip_duplicates=False) != {}

    def test_quality_sums(self):
        reads = [
            self.make_read("a", 0, "A", "1M"),
            self.make_read("b", 0, "A", "1M"),
            self.make_read("c", 0, "T", "1M"),
        ]
        col = pileup(reads)[("1", 0)]
        assert col.base_quality_sums() == {"A": 50, "T": 25}
        assert col.base_counts() == {"A": 2, "T": 1}
