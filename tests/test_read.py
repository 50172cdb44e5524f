"""Unit tests for repro.genomics.read."""

import numpy as np
import pytest

from repro.genomics.cigar import Cigar
from repro.genomics.read import Read, coordinate_key


def make_read(name="r", chrom="1", pos=100, seq="ACGTACGT", cigar="8M",
              **kwargs):
    return Read(
        name=name, chrom=chrom, pos=pos, seq=seq,
        quals=np.full(len(seq), 30, dtype=np.uint8),
        cigar=Cigar.parse(cigar) if cigar else None,
        **kwargs,
    )


class TestConstruction:
    def test_valid(self):
        read = make_read()
        assert read.is_mapped
        assert len(read) == 8

    def test_quality_length_mismatch(self):
        with pytest.raises(ValueError, match="quality scores"):
            Read("r", "1", 0, "ACGT", np.array([30, 30], dtype=np.uint8))

    def test_cigar_length_mismatch(self):
        with pytest.raises(Exception):
            make_read(cigar="7M")

    def test_negative_position(self):
        with pytest.raises(ValueError, match="negative"):
            make_read(pos=-1)

    def test_unmapped_read(self):
        read = Read("r", None, 0, "ACGT", np.full(4, 20, np.uint8))
        assert not read.is_mapped
        with pytest.raises(ValueError):
            _ = read.end

    def test_bad_mapq(self):
        with pytest.raises(ValueError, match="mapq"):
            make_read(mapq=500)

    @pytest.mark.parametrize("as_input", [np.array, list],
                             ids=["array", "list"])
    @pytest.mark.parametrize("bad, message", [
        (300, "read 'r': Phred score above 93"),  # would wrap to Q44
        (256, "read 'r': Phred score above 93"),  # would wrap to Q0
        (296, "read 'r': Phred score above 93"),  # would wrap to Q40
        (-1, "read 'r': negative Phred score"),   # would wrap to 255
    ], ids=["300", "256", "296", "minus-1"])
    def test_out_of_range_quality_fails_instead_of_wrapping(
            self, bad, message, as_input):
        quals = as_input([bad, 10, 10, 10])
        with pytest.raises(ValueError, match=message) as caught:
            Read("r", None, 0, "ACGT", quals)
        assert type(caught.value) is ValueError  # not OverflowError
        with pytest.raises(ValueError, match=message) as caught:
            Read("r", None, 0, "ACGT", np.full(4, 9, np.uint8)).with_quals(quals)
        assert type(caught.value) is ValueError

    def test_wide_in_range_quality_is_narrowed(self):
        read = Read("r", None, 0, "ACGT", [0, 93, 41, 2])
        assert read.quals.dtype == np.uint8
        assert read.quals.tolist() == [0, 93, 41, 2]


class TestCoordinates:
    def test_end_accounts_for_deletions(self):
        read = make_read(cigar="4M2D4M")
        assert read.end == 100 + 4 + 2 + 4

    def test_end_ignores_insertions(self):
        read = make_read(cigar="4M2I2M")
        assert read.end == 100 + 6

    def test_span(self):
        assert make_read().span == (100, 108)


class TestIntervalPredicates:
    def test_overlaps(self):
        read = make_read()  # [100, 108)
        assert read.overlaps(0, 101)
        assert read.overlaps(107, 200)
        assert not read.overlaps(108, 200)
        assert not read.overlaps(0, 100)

    def test_anchored_in_start(self):
        read = make_read()
        assert read.anchored_in(100, 101)
        assert read.anchored_in(95, 101)

    def test_anchored_in_end(self):
        read = make_read()  # last aligned base at 107
        assert read.anchored_in(107, 110)
        assert not read.anchored_in(108, 110)

    def test_spanning_read_not_anchored(self):
        # Both start and end outside a narrow interval: the paper's rule
        # excludes it even though it overlaps.
        read = make_read()
        assert read.overlaps(103, 105)
        assert not read.anchored_in(103, 105)


class TestUpdates:
    def test_realigned_default_cigar(self):
        read = make_read(cigar="4M2D4M")
        updated = read.realigned(42)
        assert updated.pos == 42
        assert str(updated.cigar) == "8M"
        assert read.pos == 100  # original untouched

    def test_realigned_with_cigar(self):
        updated = make_read().realigned(42, Cigar.parse("4M1D4M"))
        assert str(updated.cigar) == "4M1D4M"

    def test_marked_duplicate(self):
        assert make_read().marked_duplicate().is_duplicate

    def test_with_quals(self):
        updated = make_read().with_quals(np.full(8, 11, np.uint8))
        assert updated.quals.tolist() == [11] * 8


class TestCoordinateKey:
    def test_orders_mapped_before_unmapped(self):
        mapped = make_read()
        unmapped = Read("u", None, 0, "ACGT", np.full(4, 20, np.uint8))
        assert coordinate_key(mapped) < coordinate_key(unmapped)

    def test_orders_by_position(self):
        assert coordinate_key(make_read(pos=5)) < coordinate_key(make_read(pos=9))
