"""Unit tests for repro.genomics.sequence."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.genomics.sequence as sequence_module
from repro.genomics.sequence import (
    BASES,
    SequenceError,
    random_bases,
    seq_to_array,
    validate_bases,
)

bases_text = st.text(alphabet=BASES, max_size=200)


class TestValidation:
    def test_accepts_all_valid_bases(self):
        assert validate_bases("ACGTN") == "ACGTN"

    def test_accepts_empty(self):
        assert validate_bases("") == ""

    def test_rejects_lowercase(self):
        with pytest.raises(SequenceError, match="position 1"):
            validate_bases("AcGT")

    def test_rejects_unknown_character(self):
        with pytest.raises(SequenceError, match="invalid base 'X'"):
            validate_bases("ACXGT")


def _loop_validate_bases(seq: str) -> str:
    """The definition: the per-character walk ``validate_bases`` was."""
    for index, base in enumerate(seq):
        if base not in frozenset(BASES):
            raise SequenceError(
                f"invalid base {base!r} at position {index} "
                f"(expected one of {BASES})"
            )
    return seq


class TestValidationAgainstItsDefinition:
    @given(st.one_of(
        st.text(max_size=80),
        st.text(alphabet=BASES + "acgtn \t\n-*Xé☃", max_size=80),
        st.tuples(bases_text, st.characters(), bases_text).map("".join),
    ))
    @example("")
    @example("X")        # the invalid character only,
    @example("XACGT")    # first,
    @example("ACGTX")    # last
    @example("ACG☃")
    @example("ACGT\n")
    @example("AC GT")
    @example("acgt")
    @example("ACG\udc80")
    def test_same_object_or_same_error(self, seq):
        try:
            want = _loop_validate_bases(seq)
        except SequenceError as error:
            with pytest.raises(SequenceError) as caught:
                validate_bases(seq)
            assert str(caught.value) == str(error)
        else:
            assert validate_bases(seq) is want is seq

    def test_valid_input_takes_no_python_step_per_base(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("the per-character walk ran")

        monkeypatch.setattr(sequence_module, "enumerate", refuse,
                            raising=False)
        seq = "ACGTN" * 10 ** 5
        assert validate_bases(seq) is seq


class TestArrayConversion:
    def test_to_array_ascii_codes(self):
        arr = seq_to_array("ACGT")
        assert arr.dtype == np.uint8
        assert arr.tolist() == [65, 67, 71, 84]

    def test_array_is_writable_copy(self):
        arr = seq_to_array("ACGT")
        arr[0] = ord("T")  # must not raise

    @given(bases_text)
    def test_roundtrip(self, seq):
        assert seq_to_array(seq).tobytes().decode("ascii") == seq


class TestRandomBases:
    def test_length_and_alphabet(self):
        seq = random_bases(500, np.random.default_rng(0))
        assert len(seq) == 500
        assert set(seq) <= set("ACGT")

    def test_deterministic_by_seed(self):
        a = random_bases(50, np.random.default_rng(7))
        b = random_bases(50, np.random.default_rng(7))
        assert a == b

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            random_bases(-1, np.random.default_rng(0))
