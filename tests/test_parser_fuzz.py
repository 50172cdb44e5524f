"""Structured fuzz of the SAM-lite reader, the CIGAR parser and the
``moved`` reply: only the documented error types escape.

Four properties (ROADMAP 8(b)):

- the Python reader, :func:`~repro.genomics.samlite.ingest`, on the body
  of a valid five-line batch with random character edits (replace,
  insert, delete -- tabs, newlines, digits, bases, Phred characters and
  non-ASCII text included) either returns a batch whose reads build, or
  raises a :class:`~repro.genomics.samlite.SamError`, whose
  ``__cause__``, if any, is a field decoder's error or a ``Read``
  invariant's ``ValueError``. With ``locate`` it reads
  ``"<located line>: <the unlocated error>"``, and the located line
  alone raises the unlocated error;
- :meth:`Cigar.parse <repro.genomics.cigar.Cigar.parse>` on any text
  returns a CIGAR that re-parses from its own string, or raises
  :class:`~repro.genomics.cigar.CigarError`;
- :func:`~repro.serve.client.patch_moved` on any reply value patches
  exactly the lines its entries name, or raises
  :class:`~repro.serve.protocol.ProtocolError`;
- the compiled tokenizer (:func:`~repro.engine.native.sam_ingester`)
  accepts only what its Python twin ``ingest`` accepts on the same
  bytes and ``file`` flag, with the same columns (byte spans, flag,
  POS, MAPQ, contig, end, CIGAR elements), reads and mismatch columns,
  whose loci are ``mismatch_loci``'s of the reads: on the edited
  batches above, and on whole bodies edited field by field (signs,
  ``_``, 20-digit numbers, ``0M``, ``*`` RNAME and CIGAR, flag 0x4,
  ``\r``, non-ASCII text, mismatched bases, empty and trailing lines);
  in a file, after a header, the same. It declines nothing the
  simulator writes, so the fast path provably runs.

CI runs them with ``--hypothesis-profile=ci --hypothesis-seed=2019``.
"""

import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align.pileup import mismatch_loci
from repro.engine.native import sam_ingester
from repro.genomics.cigar import Cigar, CigarError
from repro.genomics.quality import QualityError
from repro.genomics.samlite import (
    SamError,
    format_read,
    ingest,
    patch_line,
    write_sam,
)
from repro.genomics.sequence import SequenceError
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.serve.client import patch_moved
from repro.serve.jobs import partition_jobs
from repro.serve.protocol import ProtocolError

# A test without max_examples of its own takes the active profile's
# (the ``ci`` profile is registered in tests/conftest.py).
relaxed = settings(deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

SAMPLE = simulate_sample({"chrF": 3000}, seed=7)
LINES = [format_read(read) for read in SAMPLE.reads]

#: What ``ingest`` may raise without ``locate``: its own error, and
#: nothing else.
SCAN_ERRORS = (SamError,)

#: What that error's ``__cause__`` may be: a line's
#: ``UnicodeDecodeError``, a field decoder's error, or the plain
#: ``ValueError`` a ``Read`` raises for its own invariants (quality
#: count, MAPQ range); None when the parser found it itself.
SCAN_CAUSES = (type(None), UnicodeDecodeError, CigarError, QualityError,
               SequenceError, ValueError)

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
def test_the_reader_raises_only_documented_errors(lines, with_reference):
    reference = SAMPLE.reference if with_reference else None
    body = "\n".join(lines).encode("utf-8")
    error = _raised(lambda: ingest(body, reference).reads())
    located = _raised(lambda: ingest(body, reference,
                                     locate=lambda i: f"line {i}"))
    if error is None:
        assert located is None
        return
    assert type(error) in SCAN_ERRORS, repr(error)
    assert type(error.__cause__) in SCAN_CAUSES, repr(error.__cause__)
    assert type(located) is SamError, repr(located)
    prefix, _, message = str(located).partition(": ")
    assert message == str(error)
    line = body.split(b"\n")[int(prefix.removeprefix("line "))]
    # an empty line alone is a body of empty lines, not an empty body
    alone = _raised(lambda: ingest(line or b"\n", reference))
    assert type(alone) is type(error) and str(alone) == str(error)
    assert type(alone.__cause__) is type(error.__cause__)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_a_line_that_is_not_utf8_is_a_located_sam_error(newline):
    lines = [line.encode("utf-8") for line in LINES[:5]]
    lines[3] += b"\tXX:Z:a\xffb"
    file = newline != b"\n"  # only a file's lines may end in \r\n

    def located(lines):
        return _raised(lambda: ingest(newline.join(lines), SAMPLE.reference,
                                      file=file,
                                      locate=lambda i: f"line {i}"))

    error = located(lines)
    assert type(error) is SamError, repr(error)
    assert str(error).startswith("line 3: line is not UTF-8: ")
    assert type(error.__cause__) is UnicodeDecodeError
    alone = _raised(lambda: ingest(lines[3], SAMPLE.reference))
    assert str(error) == f"line 3: {alone}"
    # the lines before it are read first
    lines[1] = b"r1\t0"
    assert str(located(lines)).startswith("line 1: ")


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


# ---------------------------------------------------------------------
# the compiled tokenizer against its Python twin
# ---------------------------------------------------------------------

#: The tokenizer against the sample's reference; None without the
#: compiled tier (``REPRO_NATIVE=off``), where SAM bytes are read in
#: Python and these tests have nothing to compare.
INGEST = sam_ingester(SAMPLE.reference)
needs_ingest = pytest.mark.skipif(INGEST is None,
                                  reason="no compiled kernel tier")
CONTIG_LENGTH = SAMPLE.reference.length("chrF")
DECLINED, NO_INDEL, INDEL = "declined", "no INDEL", "INDEL"
READ_FIELDS = ("name", "chrom", "pos", "seq", "cigar", "mapq", "is_reverse",
               "is_duplicate")


def _same_columns(got, want, reference) -> None:
    """The compiled batch ``got`` holds ``want``'s buffer, columns,
    reads and mismatch columns, and gives ``mismatch_loci``'s loci."""
    assert got.buffer == want.buffer and got.contigs == want.contigs
    assert np.array_equal(got.columns, want.columns)
    assert np.array_equal(got.op_at, want.op_at)
    assert np.array_equal(got.ops, want.ops)
    assert got.has_indel == want.has_indel
    assert np.array_equal(got.indel, want.indel)
    assert len(got) == len(want)
    for mine, theirs in zip(got.reads(), want.reads()):
        assert np.array_equal(mine.quals, theirs.quals)
        assert ([getattr(mine, field) for field in READ_FIELDS]
                == [getattr(theirs, field) for field in READ_FIELDS])
    # the compiled pass's own columns, where it filled them: handed over
    # once
    for mine, theirs in zip(got.mismatches(reference),
                            want.mismatches(reference)):
        assert np.array_equal(mine, theirs)
    reads = want.reads()
    for depth, fraction in ((1, 0.01), (2, 0.5), (4, 0.5)):
        assert (mismatch_loci(got, reference, depth, fraction)
                == mismatch_loci(reads, reference, depth, fraction))


def _check_agrees(buffer: bytes, reference=SAMPLE.reference,
                  compiled=INGEST, file: bool = False) -> str:
    """The tokenizer's verdict on ``buffer``; when it accepts, ``ingest``
    accepts the same bytes and flag with the same columns."""
    batch = compiled(buffer, file=file)
    if batch is None:
        return DECLINED
    _same_columns(batch, ingest(buffer, reference, file=file), reference)
    return INDEL if batch.has_indel else NO_INDEL


#: Values a body edit puts in a column: near misses of the column's
#: rule, and legal values at its edges (reads are 250 bases).
FIELD_VALUES = {
    0: ("r\u00e9ad", "", "read\r", "*"),
    1: ("0", "4", "16", "99", "147", "1024", "1044", "1107", "+12", "1_0",
        "0x4", " 4", "-4", "9" * 18, "9" * 20, "", "\u0664"),
    2: ("*", "chrF", "chrNope", "chrF\r", "chr\u00e9", ""),
    3: ("0", "1", "+12", "1_0", "2751", "2752", "9" * 18, "9" * 20, "-1",
        ""),
    4: ("0", "60", "254", "255", "0254", "+60", "9" * 20, ""),
    5: ("*", "0M", "", "M", "250", "0250M", "250M\r", "125M0I125M",
        "1X249M", "\u0662\u0665\u0660M"),
    9: ("*", "", "a", "R"),
    10: ("*", "", " ", "\x7f", "~"),
}


@st.composite
def _cigar_for(draw, read_length: int) -> str:
    """A CIGAR of up to four random elements and a closing M, consuming
    ``read_length`` bases give or take one; lengths may have a leading
    zero."""
    elements = draw(st.lists(st.tuples(st.sampled_from("MIDS"),
                                       st.integers(1, 60)), max_size=4))
    consumed = sum(length for op, length in elements if op != "D")
    rest = read_length - consumed + draw(st.sampled_from((-1, 0, 0, 1)))
    if rest > 0:
        elements.append(("M", rest))
    pad = draw(st.sampled_from(("", "", "0")))
    return "".join(f"{pad}{length}{op}" for op, length in elements)


@st.composite
def edited_body(draw) -> bytes:
    """One to eight consecutive valid lines, with up to four field
    edits, joined into a body that may end in a newline or hold an
    empty line."""
    start = draw(st.integers(0, len(LINES) - 8))
    count = draw(st.integers(1, 8))
    rows = [line.split("\t") for line in LINES[start:start + count]]
    for _ in range(draw(st.integers(0, 4))):
        fields = rows[draw(st.integers(0, count - 1))]
        kind = draw(st.sampled_from(("value", "cigar", "end", "clip",
                                     "line", "base")))
        if kind == "value" and len(fields) > 10:
            column = draw(st.sampled_from(sorted(FIELD_VALUES)))
            fields[column] = draw(st.sampled_from(FIELD_VALUES[column]))
        elif kind == "cigar" and len(fields) > 9:
            fields[5] = draw(_cigar_for(len(fields[9])))
        elif kind == "end" and len(fields) > 5:
            # POS that puts the alignment's end at, or past, the contig's
            spans = re.findall(r"(\d+)([MD])", fields[5])
            span = sum(int(length) for length, _op in spans)
            fields[3] = str(CONTIG_LENGTH - span + draw(st.integers(1, 2)))
        elif kind == "clip" and len(fields) > 10:
            keep = draw(st.integers(0, len(fields[9])))
            fields[9], fields[10] = fields[9][:keep], fields[10][:keep]
        elif kind == "base" and len(fields) > 9 and fields[9]:
            # a mismatch against the reference, or an N
            at = draw(st.integers(0, len(fields[9]) - 1))
            base = draw(st.sampled_from("ACGTN"))
            fields[9] = fields[9][:at] + base + fields[9][at + 1:]
        elif kind == "line":
            edit = draw(st.sampled_from(("\r", "\tRG:Z:lib1", "\t",
                                         "\tXN:Z:\u00e9", "drop")))
            if edit == "drop":
                fields.pop()
            else:
                fields[-1] += edit
    lines = ["\t".join(fields) for fields in rows]
    shape = draw(st.sampled_from(("as is", "as is", "trailing newline",
                                  "empty line")))
    if shape == "trailing newline":
        lines.append("")
    elif shape == "empty line":
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines).encode("utf-8")


@needs_ingest
@relaxed
@given(body=edited_body())
def test_an_accepted_body_is_one_the_reader_accepts(body):
    _check_agrees(body)


@needs_ingest
@relaxed
@given(lines=edited_batch())
def test_an_accepted_edited_batch_is_one_the_reader_accepts(lines):
    _check_agrees("\n".join(lines).encode("utf-8"))


@needs_ingest
@relaxed
@given(body=edited_body(), header=st.sampled_from(
    ("", "@HD\tVN:1.6\n", "@HD\tVN:1.6\n@SQ\tSN:chrF\tLN:3000\n")))
def test_a_file_is_its_body_after_its_header(body, header):
    """In a file the tokenizer skips ``@`` lines and takes a final
    newline: it accepts the body's lines after a header when it accepts
    the body and no ``\\r`` is in it, with the columns ``ingest`` reads
    from the file's bytes. A ``\\r\\n`` file it declines is read by
    ``ingest`` as the ``\\n`` one."""
    text = header.encode() + body + b"\n"
    verdict = _check_agrees(text, file=True)
    # a text-mode read would take the \r for a line end
    assert (verdict == DECLINED) == (INGEST(body) is None or b"\r" in body)
    crlf = text.replace(b"\n", b"\r\n")
    assert INGEST(crlf, file=True) is None
    if verdict != DECLINED:
        _same_columns(INGEST(text, file=True),
                      ingest(crlf, SAMPLE.reference, file=True),
                      SAMPLE.reference)


@needs_ingest
def test_the_edits_the_check_must_decline_and_accept():
    """Each listed edit of one valid line, and the verdict it gets: the
    property above is not vacuous on either side."""
    fields = LINES[0].split("\t")
    indel = next(line for line in LINES
                 if re.search(r"\d[ID]", line.split("\t")[5]))

    def edited(column, value):
        return "\t".join(fields[:column] + [value] + fields[column + 1:])

    def mismatched(flag):
        """The line with ``flag`` and its first base changed."""
        bases = "CGTA"["ACGT".index(fields[9][0])] + fields[9][1:]
        return "\t".join(fields[:1] + [flag] + fields[2:9] + [bases]
                         + fields[10:])

    declined = [LINES[0] + "\n", "\n" + LINES[0], LINES[0] + "\r",
                edited(1, "+16"), edited(1, "1_6"), edited(3, "9" * 20),
                edited(5, "0M"), edited(5, "125M0I125M"),
                edited(2, "chrNope"), edited(0, "r\u00e9ad"),
                edited(4, "255"), edited(3, "0")]
    for body in declined:
        assert _check_agrees(body.encode("utf-8")) == DECLINED, body
    accepted = {
        LINES[0]: NO_INDEL,
        indel: INDEL,
        f"{LINES[0]}\n{indel}": INDEL,
        edited(2, "*"): NO_INDEL,
        edited(5, "*"): NO_INDEL,
        "\t".join(fields[:1] + ["4"] + fields[2:5] + ["junk"]
                  + fields[6:]): NO_INDEL,
        edited(1, "0004"): NO_INDEL,
        LINES[0] + "\tRG:Z:lib1\r": NO_INDEL,
        "": NO_INDEL,
        # a duplicate's and a paired read's mismatches next to an INDEL:
        # the duplicate's are no evidence, flag 0x1 is no column bit
        f"{mismatched('1024')}\n{mismatched('99')}\n{indel}": INDEL,
    }
    for body, verdict in accepted.items():
        assert _check_agrees(body.encode("utf-8")) == verdict, body


@needs_ingest
def test_the_check_declines_no_simulated_job():
    """Every ``serve_regions``-shaped job at seed 2019 (32 contigs of
    2 kb at 30x), and one whole 60 kb / 30x body and file, is accepted,
    with ``ingest``'s columns and mismatch columns."""
    profile = SimulationProfile(coverage=30.0)
    sample = simulate_sample({f"ctg{i:02d}": 2000 for i in range(32)},
                             profile=profile, seed=2019)
    compiled = sam_ingester(sample.reference)
    jobs = partition_jobs(sample.reads, sample.reference)
    verdicts = [_check_agrees("\n".join(map(format_read, job.reads))
                              .encode(), sample.reference, compiled)
                for job in jobs]
    assert len(jobs) == 32 and DECLINED not in verdicts
    assert INDEL in verdicts and NO_INDEL in verdicts
    sample = simulate_sample({"chrW": 60_000}, profile=profile, seed=2019)
    compiled = sam_ingester(sample.reference)
    body = "\n".join(map(format_read, sample.reads)).encode()
    assert _check_agrees(body, sample.reference, compiled) == INDEL
    text = io.StringIO()
    write_sam(sample.reads, text, sample.reference)
    assert _check_agrees(text.getvalue().encode(), sample.reference,
                         compiled, file=True) == INDEL


@needs_ingest
def test_the_tokenizer_makes_room_for_what_it_finds():
    """Short lines outnumber the first guess at the rows, and reads that
    mismatch at every base the guess at the mismatch columns: the pass
    is run again with room, and its columns are still ``ingest``'s."""
    contig = SAMPLE.reference.fetch("chrF", 0, CONTIG_LENGTH)
    lines = []
    for i in range(300):
        pos = 9 * i
        seq = "".join("CGTA"["ACGT".index(base)]
                      for base in contig[pos:pos + 8])
        cigar = "3M1I4M" if i % 7 == 0 else "8M"
        lines.append(f"r{i}\t0\tchrF\t{pos + 1}\t60\t{cigar}\t*\t0\t0\t"
                     f"{seq}\tIIIIIIII")
    assert _check_agrees("\n".join(lines).encode()) == INDEL
