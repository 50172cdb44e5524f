"""Unit tests for repro.genomics.cigar."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.genomics.cigar import (
    Cigar,
    CigarError,
    CigarOp,
    validate_cigar_against_read,
)

element = st.tuples(
    st.sampled_from(list(CigarOp)), st.integers(min_value=1, max_value=50)
)


class TestParsing:
    def test_parse_simple(self):
        cigar = Cigar.parse("70M2D30M")
        assert cigar.elements == (
            (CigarOp.MATCH, 70), (CigarOp.DELETION, 2), (CigarOp.MATCH, 30),
        )

    def test_str_roundtrip(self):
        assert str(Cigar.parse("5S10M3I7M")) == "5S10M3I7M"

    def test_rejects_empty(self):
        with pytest.raises(CigarError):
            Cigar.parse("")

    def test_rejects_unknown_op(self):
        with pytest.raises(CigarError):
            Cigar.parse("10M5X")

    def test_rejects_missing_length(self):
        with pytest.raises(CigarError):
            Cigar.parse("M")

    def test_rejects_zero_length_element(self):
        with pytest.raises(CigarError):
            Cigar(((CigarOp.MATCH, 0),))

    @given(st.lists(element, min_size=1, max_size=10))
    def test_parse_format_roundtrip(self, elements):
        cigar = Cigar(tuple(elements))
        assert Cigar.parse(str(cigar)) == cigar


class TestParseIsMemoised:
    """``Cigar.parse`` interns by text; nothing else about it changes."""

    @given(st.lists(element, min_size=1, max_size=10))
    def test_one_instance_per_text(self, elements):
        built = Cigar(tuple(elements))  # not through the cache
        text = str(built)
        parsed = Cigar.parse(text)
        assert parsed is Cigar.parse(text)
        assert parsed == built and hash(parsed) == hash(built)
        assert str(parsed) == text
        assert parsed.read_length == built.read_length
        assert parsed.reference_length == built.reference_length

    @pytest.mark.parametrize("text", ["", "10M5Q", "M", "0M", "10M "])
    def test_a_malformed_string_raises_every_time(self, text):
        for _ in range(2):
            with pytest.raises(CigarError):
                Cigar.parse(text)

    def test_cache_is_bounded(self):
        bound = Cigar.parse.cache_info().maxsize
        assert bound is not None
        for length in range(1, 10_001):
            Cigar.parse(f"{length}M")
        info = Cigar.parse.cache_info()
        assert info.currsize == bound < 10_000


class TestFromElements:
    def test_merges_adjacent_same_op(self):
        cigar = Cigar.from_elements(
            [(CigarOp.MATCH, 10), (CigarOp.MATCH, 5), (CigarOp.DELETION, 2)]
        )
        assert str(cigar) == "15M2D"

    def test_drops_zero_lengths(self):
        cigar = Cigar.from_elements(
            [(CigarOp.MATCH, 10), (CigarOp.INSERTION, 0), (CigarOp.MATCH, 2)]
        )
        assert str(cigar) == "12M"

    def test_matched(self):
        assert str(Cigar.matched(100)) == "100M"


class TestLengths:
    def test_read_and_reference_lengths(self):
        cigar = Cigar.parse("5S20M3I10M2D15M")
        assert cigar.read_length == 5 + 20 + 3 + 10 + 15
        assert cigar.reference_length == 20 + 10 + 2 + 15

    def test_validate_against_read(self):
        validate_cigar_against_read(Cigar.parse("10M"), 10)
        with pytest.raises(CigarError):
            validate_cigar_against_read(Cigar.parse("10M"), 11)

    @given(st.lists(element, min_size=1, max_size=10))
    def test_lengths_consistent(self, elements):
        cigar = Cigar(tuple(elements))
        read_len = sum(l for op, l in elements if op.consumes_read)
        ref_len = sum(l for op, l in elements if op.consumes_reference)
        assert cigar.read_length == read_len
        assert cigar.reference_length == ref_len


class TestIndels:
    def test_has_indel(self):
        assert Cigar.parse("10M2I10M").has_indel
        assert Cigar.parse("10M2D10M").has_indel
        assert not Cigar.parse("10M5S").has_indel

    def test_indel_offsets(self):
        cigar = Cigar.parse("10M2I5M3D10M")
        assert cigar.indels() == [
            (10, CigarOp.INSERTION, 2), (15, CigarOp.DELETION, 3),
        ]

    def test_soft_clip_does_not_advance_reference(self):
        cigar = Cigar.parse("5S10M1D10M")
        assert cigar.indels() == [(10, CigarOp.DELETION, 1)]


class TestAlignedPairs:
    def test_simple_match(self):
        assert Cigar.parse("3M").aligned_pairs() == [(0, 0), (1, 1), (2, 2)]

    def test_insertion_skips_reference(self):
        pairs = Cigar.parse("2M1I2M").aligned_pairs()
        assert pairs == [(0, 0), (1, 1), (3, 2), (4, 3)]

    def test_deletion_skips_read(self):
        pairs = Cigar.parse("2M1D2M").aligned_pairs()
        assert pairs == [(0, 0), (1, 1), (2, 3), (3, 4)]

    def test_soft_clip_consumes_read_only(self):
        pairs = Cigar.parse("2S2M").aligned_pairs()
        assert pairs == [(2, 0), (3, 1)]
