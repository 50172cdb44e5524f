"""Unit tests for the read pileup (``repro.align.pileup``)."""

import numpy as np

from repro.align.pileup import pileup
from repro.genomics.cigar import Cigar
from repro.genomics.read import Read


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
