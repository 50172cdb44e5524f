"""Unit tests for repro.genomics.quality."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.genomics.quality as quality_module
from repro.genomics.quality import (
    ILLUMINA_MAX_PHRED,
    MAX_PHRED,
    PHRED_OFFSET,
    QualityError,
    clamp_phred,
    error_prob_to_phred,
    phred_from_ascii,
    phred_to_ascii,
    phred_to_error_prob,
)


class TestAsciiCoding:
    def test_known_values(self):
        # '!' is Q0, 'I' is Q40 in Sanger Phred+33.
        assert phred_to_ascii([0, 40]) == "!I"
        assert phred_from_ascii("!I").tolist() == [0, 40]

    def test_rejects_out_of_range_score(self):
        with pytest.raises(QualityError):
            phred_to_ascii([MAX_PHRED + 1])
        with pytest.raises(QualityError):
            phred_to_ascii([-1])

    def test_rejects_out_of_range_character(self):
        with pytest.raises(QualityError):
            phred_from_ascii(" ")  # below '!'

    @given(st.lists(st.integers(0, MAX_PHRED), max_size=100))
    def test_roundtrip(self, scores):
        decoded = phred_from_ascii(phred_to_ascii(scores))
        assert decoded.tolist() == scores


# -- the definitions the table-driven codec is held to -------------------
#
# The codec as it stood before it stopped taking a Python step per base,
# kept here as the reference: new and old must agree on the value, or on
# the exception's type *and* message.

def _loop_phred_to_ascii(quals) -> str:
    chars = []
    for score in quals:
        score = int(score)
        if not 0 <= score <= MAX_PHRED:
            raise QualityError(f"Phred score {score} outside [0, {MAX_PHRED}]")
        chars.append(chr(score + PHRED_OFFSET))
    return "".join(chars)


def _widening_phred_from_ascii(text: str) -> np.ndarray:
    rejected = QualityError(
        f"quality string contains characters outside Phred+33 range: {text!r}"
    )
    try:
        encoded = text.encode("ascii")
    except UnicodeEncodeError:  # the one retyping: it used to escape as is
        raise rejected from None
    raw = np.frombuffer(encoded, dtype=np.uint8).astype(np.int16)
    scores = raw - PHRED_OFFSET
    if scores.size and (scores.min() < 0 or scores.max() > MAX_PHRED):
        raise rejected
    return scores.astype(np.uint8)


def _outcome(function, argument):
    try:
        return function(argument)
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return type(error), str(error)


EDGE_SCORES = [-1, 0, MAX_PHRED, MAX_PHRED + 1, 255, 300]
scores_lists = st.lists(
    st.one_of(st.integers(0, MAX_PHRED), st.sampled_from(EDGE_SCORES),
              st.integers(-1000, 1000)),
    max_size=60,
)

def _wrapped_uint8(scores) -> np.ndarray:
    return np.array(scores, dtype=np.int64).astype(np.uint8)  # mod 256


#: scores -> the container handed to each side (called once per side,
#: so a generator is fresh for both).
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda scores: (score for score in scores),
    "numpy scalars": lambda scores: [np.int64(s) for s in scores],
    "int64 array": lambda scores: np.array(scores, dtype=np.int64),
    "uint8 array": _wrapped_uint8,
    "strided uint8": lambda scores: np.repeat(_wrapped_uint8(scores), 2)[::2],
    "bool array": lambda scores: _wrapped_uint8(scores) % 2 == 1,
}


class TestCodecAgainstItsDefinition:
    @pytest.mark.parametrize("container", sorted(CONTAINERS))
    @given(scores=scores_lists)
    @example(scores=[])
    @example(scores=[0, MAX_PHRED])
    @example(scores=[10, MAX_PHRED + 1, 300, -1])  # the first offender
    @example(scores=[10, 255, MAX_PHRED + 1])
    @example(scores=[10, -1, 300])
    def test_phred_to_ascii(self, container, scores):
        build = CONTAINERS[container]
        assert _outcome(phred_to_ascii, build(scores)) == \
            _outcome(_loop_phred_to_ascii, build(scores))

    @pytest.mark.parametrize("misuse", [
        pytest.param(5, id="int"),
        pytest.param(None, id="None"),
        pytest.param("!!", id="str"),
        pytest.param([1.9], id="float"),
        pytest.param(["7"], id="digit-str"),
        pytest.param([300, "x"], id="offender-then-junk"),
        pytest.param(["x", 300], id="junk-then-offender"),
        pytest.param([None], id="None-item"),
        pytest.param(np.zeros((2, 2), np.uint8), id="2d-uint8"),
        pytest.param(np.uint8(3), id="uint8-scalar"),
        pytest.param(np.array(3, np.uint8), id="0d-uint8"),
        pytest.param([2 ** 70], id="huge"),
        pytest.param([-(2 ** 70)], id="huge-negative"),
    ])
    def test_phred_to_ascii_misuse_fails_the_same_way(self, misuse):
        assert _outcome(phred_to_ascii, misuse) == \
            _outcome(_loop_phred_to_ascii, misuse)

    @given(st.one_of(
        st.text(max_size=60),
        st.text(alphabet=st.characters(min_codepoint=30, max_codepoint=130),
                max_size=60),
    ))
    @example("")
    @example(" ")
    @example("~")
    @example("!~")
    @example("\x7f")
    @example("II\r")
    @example("IIé")
    @example("\udc80")  # a lone surrogate: no codec can encode it
    def test_phred_from_ascii(self, text):
        got = _outcome(phred_from_ascii, text)
        want = _outcome(_widening_phred_from_ascii, text)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == np.uint8 and got.tolist() == want.tolist()
            assert got.flags.writeable and got.flags.owndata

    def test_non_ascii_quality_text_is_a_quality_error(self):
        """The served path calls ``parse_read`` with no ``parse_sam``
        around it to retype a ``UnicodeEncodeError``."""
        from repro.genomics.samlite import parse_read

        with pytest.raises(QualityError, match="outside Phred\\+33 range: 'é'"):
            phred_from_ascii("é")
        with pytest.raises(QualityError):
            parse_read("r\t0\t1\t10\t60\t4M\t*\t0\t0\tACGT\tIIIé")

    def test_encoding_takes_no_python_step_per_base(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a character was built in Python")

        monkeypatch.setattr(quality_module, "chr", refuse, raising=False)
        monkeypatch.setattr(quality_module, "int", refuse, raising=False)
        assert phred_to_ascii(np.zeros(10 ** 6, np.uint8)) == "!" * 10 ** 6


class TestProbabilities:
    def test_q10_is_ten_percent(self):
        assert phred_to_error_prob(10) == pytest.approx(0.1)

    def test_q60_is_one_in_a_million(self):
        assert phred_to_error_prob(60) == pytest.approx(1e-6)

    def test_inverse(self):
        assert error_prob_to_phred(0.001) == pytest.approx(30.0)

    def test_negative_score_rejected(self):
        with pytest.raises(QualityError):
            phred_to_error_prob(-1)

    def test_bad_probability_rejected(self):
        with pytest.raises(QualityError):
            error_prob_to_phred(0.0)
        with pytest.raises(QualityError):
            error_prob_to_phred(1.5)

    @given(st.integers(0, MAX_PHRED))
    def test_prob_phred_roundtrip(self, score):
        prob = phred_to_error_prob(score)
        assert error_prob_to_phred(prob) == pytest.approx(score, abs=1e-9)


class TestClamp:
    def test_clamps_to_illumina_ceiling(self):
        out = clamp_phred(np.array([-5, 0, 41, 99]))
        assert out.tolist() == [0, 0, 41, ILLUMINA_MAX_PHRED]
        assert out.dtype == np.uint8

    def test_custom_ceiling(self):
        assert clamp_phred(np.array([50]), ceiling=45).tolist() == [45]
