"""Structured fuzz of the SAM-lite checker, the CIGAR parser and the
``moved`` reply: only the documented error types escape.

Three properties (ROADMAP 8(b)):

- :func:`~repro.genomics.samlite.scan_lines` on a valid five-line batch
  with random character edits (replace, insert, delete -- tabs,
  newlines, digits, bases, Phred characters and non-ASCII text
  included) either returns a batch whose reads build, or raises a
  :class:`~repro.genomics.samlite.SamError`, whose ``__cause__``, if
  any, is a field decoder's error or a ``Read`` invariant's
  ``ValueError``. With ``locate`` it reads
  ``"<located line>: <the unlocated error>"``, and the located line
  alone raises the unlocated error;
- :meth:`Cigar.parse <repro.genomics.cigar.Cigar.parse>` on any text
  returns a CIGAR that re-parses from its own string, or raises
  :class:`~repro.genomics.cigar.CigarError`;
- :func:`~repro.serve.client.patch_moved` on any reply value patches
  exactly the lines its entries name, or raises
  :class:`~repro.serve.protocol.ProtocolError`.

CI runs them with ``--hypothesis-profile=ci --hypothesis-seed=2019``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.genomics.cigar import Cigar, CigarError
from repro.genomics.quality import QualityError
from repro.genomics.samlite import (
    SamError,
    format_read,
    patch_line,
    scan_lines,
)
from repro.genomics.sequence import SequenceError
from repro.genomics.simulate import simulate_sample
from repro.serve.client import patch_moved
from repro.serve.protocol import ProtocolError

# A test without max_examples of its own takes the active profile's
# (the ``ci`` profile is registered in tests/conftest.py).
relaxed = settings(deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

SAMPLE = simulate_sample({"chrF": 3000}, seed=7)
LINES = [format_read(read) for read in SAMPLE.reads]

#: What ``scan_lines`` may raise without ``locate``: its own error, and
#: nothing else.
SCAN_ERRORS = (SamError,)

#: What that error's ``__cause__`` may be: a field decoder's error, or
#: the plain ``ValueError`` a ``Read`` raises for its own invariants
#: (quality count, MAPQ range); None when the parser found it itself.
SCAN_CAUSES = (type(None), CigarError, QualityError, SequenceError, ValueError)

#: Characters an edit draws from: every field's alphabet, the field and
#: line separators, and text outside ASCII and outside Phred+33.
EDIT_CHARS = st.one_of(
    st.sampled_from("\t\n0123456789-+*=MIDSNX ACGTN!#I~\x7f"),
    st.characters(blacklist_categories=("Cs",)),
)


@st.composite
def edited_batch(draw):
    """Five consecutive valid lines with one to four character edits."""
    start = draw(st.integers(0, len(LINES) - 5))
    lines = LINES[start:start + 5]
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, 4))
        line = lines[row]
        at = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        char = draw(EDIT_CHARS)
        if kind == "insert":
            line = line[:at] + char + line[at:]
        elif kind == "replace":
            line = line[:at] + char + line[at + 1:]
        else:
            line = line[:at] + line[at + 1:]
        lines = lines[:row] + [line] + lines[row + 1:]
    return lines


def _raised(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the property inspects it
        return error
    return None


@relaxed
@given(lines=edited_batch(), with_reference=st.booleans())
def test_scan_lines_raises_only_documented_errors(lines, with_reference):
    reference = SAMPLE.reference if with_reference else None
    error = _raised(lambda: scan_lines(lines, reference).reads())
    located = _raised(lambda: scan_lines(lines, reference,
                                         locate=lambda i: f"line {i}"))
    if error is None:
        assert located is None
        return
    assert type(error) in SCAN_ERRORS, repr(error)
    assert type(error.__cause__) in SCAN_CAUSES, repr(error.__cause__)
    assert type(located) is SamError, repr(located)
    prefix, _, message = str(located).partition(": ")
    assert message == str(error)
    row = int(prefix.removeprefix("line "))
    alone = _raised(lambda: scan_lines([lines[row]], reference))
    assert type(alone) is type(error) and str(alone) == str(error)
    assert type(alone.__cause__) is type(error.__cause__)


@relaxed
@given(text=st.one_of(
    st.text(st.sampled_from("0123456789MIDSX=* \t"), max_size=16),
    st.text(max_size=16),
))
def test_cigar_parse_raises_only_cigar_error(text):
    try:
        cigar = Cigar.parse(text)
    except CigarError:
        return
    assert Cigar.parse(str(cigar)) == cigar


#: Reply values: well-formed entries, near misses, and JSON of any shape.
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
              st.floats(allow_nan=False), st.text(max_size=8)),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)
ENTRY = st.one_of(
    st.tuples(st.integers(-2, 8), st.integers(-1, 5000),
              st.text(max_size=8)).map(list),
    JSON,
)


@relaxed
@given(moved=st.one_of(st.lists(ENTRY, max_size=6), JSON),
       short=st.booleans())
def test_patch_moved_raises_only_protocol_error(moved, short):
    # A short line has no POS and CIGAR to patch.
    sent = LINES[:5] + (["r\t0\tchrF"] if short else [])
    try:
        patched = patch_moved(sent, moved)
    except ProtocolError:
        return
    touched = {entry[0] for entry in moved}
    assert len(patched) == len(sent)
    for index, (before, after) in enumerate(zip(sent, patched)):
        if index not in touched:
            assert after == before
    for index, pos, cigar in moved:
        assert patched[index] == patch_line(sent[index], pos, cigar)
