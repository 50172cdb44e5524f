"""The SAM reader against the per-line parser it replaced.

``parse_read`` and ``check_placement`` below are the per-line parser
the repository used before the batch reader, copied verbatim as the
reference: one ``Read`` per line through ``__post_init__``, then the
placement check. On drawn batches of mapped, unmapped and flagged lines
with up to two corrupted lines, :func:`repro.genomics.samlite.ingest`
-- on the lines as a served job's body, and as a file with header and
blank lines among the reads, read in chunks of a few lines -- must give

- on a valid batch, the same reads, every field and ``quals`` element
  by element, whether built one at a time or all together, and a
  ``has_indel`` that is whether any of those reads has an INDEL -- what
  the server's gate answers a job on;
- on an invalid one, the reference's first error: raw from a body, a
  :class:`~repro.genomics.samlite.SamError` with the same message whose
  ``__cause__`` is the reference's error unless that is a ``SamError``
  itself; ``sam[i]: ...`` as a served job reports it; and
  ``path:line: ...`` from the file's bytes, and from
  :func:`~repro.genomics.samlite.read_sam` on its path.

CI runs the property with ``--hypothesis-profile=ci
--hypothesis-seed=2019``.
"""

import os
import tempfile
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.genomics.samlite as samlite
from repro.genomics.cigar import Cigar
from repro.genomics.quality import phred_from_ascii
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.samlite import (
    FLAG_DUPLICATE,
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    SamError,
)

# A test without max_examples of its own takes the active profile's
# (the ``ci`` profile is registered in tests/conftest.py).
relaxed = settings(deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

REFERENCE = ReferenceGenome.from_dict({"c1": "ACGTTGCA" * 20,
                                       "c2": "GATTACA" * 13})
LENGTHS = {contig.name: len(contig) for contig in REFERENCE}


def parse_read(line: str) -> Read:
    """Parse one SAM-lite alignment line back into a :class:`Read`."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 11:
        raise SamError(f"SAM line has {len(fields)} fields, expected >= 11")
    name, flag_text, chrom, pos_text, mapq_text, cigar_text = fields[:6]
    seq, quals_text = fields[9], fields[10]
    try:
        flag = int(flag_text)
        pos = int(pos_text)
        mapq = int(mapq_text)
    except ValueError as exc:
        raise SamError(f"bad numeric field in SAM line: {exc}") from None
    unmapped = bool(flag & FLAG_UNMAPPED) or chrom == "*" or cigar_text == "*"
    return Read(
        name=name,
        chrom=None if unmapped else chrom,
        pos=0 if unmapped else pos - 1,
        seq=seq,
        quals=phred_from_ascii(quals_text),
        cigar=None if unmapped else Cigar.parse(cigar_text),
        mapq=mapq,
        is_reverse=bool(flag & FLAG_REVERSE),
        is_duplicate=bool(flag & FLAG_DUPLICATE),
    )


def check_placement(read: Read, reference: ReferenceGenome) -> None:
    """Raise :class:`SamError` unless a mapped ``read`` lies on a contig
    of ``reference``, inside it. The text boundaries (a SAM file, a
    served job's lines) call this; in-memory reads are not checked."""
    if not read.is_mapped:
        return
    try:
        length = reference.length(read.chrom)
    except KeyError:
        raise SamError(f"RNAME {read.chrom!r} is not a contig of the "
                       "reference") from None
    end = read.pos + read.cigar.reference_length
    if end > length:
        raise SamError(f"alignment {read.chrom}:{read.pos + 1}-{end} runs "
                       f"past the contig end ({length})")


def reference_parse(lines):
    """The reference's reads, or ``(index, error)`` of the first bad line."""
    reads = []
    for index, line in enumerate(lines):
        try:
            read = parse_read(line)
            check_placement(read, REFERENCE)
        except ValueError as error:
            return reads, (index, error)
        reads.append(read)
    return reads, None


# -- drawn lines ------------------------------------------------------------

SANGER = "".join(map(chr, range(33, 127)))
FLAG_BITS = (0x1, 0x2, FLAG_REVERSE, 0x40, 0x80, FLAG_DUPLICATE)

#: Each corruption edits the 11+ fields of a valid line; applied in
#: twos, they exercise the order of the checks within one line.
CORRUPTIONS = {
    "count": lambda f, d: f[:d(st.integers(1, 10))],
    "numeric": lambda f, d: _set(f, d(st.sampled_from((1, 3, 4))),
                                 d(st.sampled_from(("x", "1.5", "", "0x4")))),
    "quality-char": lambda f, d: _set(f, 10, _poke(
        f[10], d, d(st.sampled_from((" ", "\x7f", "é", "\x19"))))),
    "cigar-syntax": lambda f, d: _set(f, 5, d(st.sampled_from(
        ("10M5Q", "", "M", "0M", "4M*")))),
    "base": lambda f, d: _set(f, 9, _poke(
        f[9], d, d(st.sampled_from(("R", "a", "é", "*"))))),
    "quality-count": lambda f, d: _set(f, 10, d(st.sampled_from(
        (f[10] + "I", f[10][:-1])))),
    "cigar-length": lambda f, d: _set(f, 5, f"{len(f[9]) + 1}M"),
    "pos-zero": lambda f, d: _set(f, 3, "0"),
    "mapq": lambda f, d: _set(f, 4, d(st.sampled_from(("255", "-1", "300")))),
    "rname": lambda f, d: _set(f, 2, "chrNope"),
    "past-end": lambda f, d: _set(f, 3, _past_end(f)),
}


def _set(fields, index, value):
    fields = list(fields)
    fields[index] = value
    return fields


def _poke(text, draw, char):
    at = draw(st.integers(0, max(0, len(text) - 1)))
    return text[:at] + char + text[at + 1:]


def _past_end(fields):
    """A 1-based POS whose alignment ends one past its contig."""
    try:
        span = Cigar.parse(fields[5]).reference_length
    except ValueError:
        span = 1
    return str(LENGTHS.get(fields[2], 100) - span + 2)


@st.composite
def cigars(draw):
    """``(text, read bases, reference bases)``: [S] M [I|D M] [S]."""
    elements = []
    if draw(st.booleans()):
        elements.append(("S", draw(st.integers(1, 4))))
    elements.append(("M", draw(st.integers(1, 8))))
    if draw(st.booleans()):
        elements.append((draw(st.sampled_from("ID")), draw(st.integers(1, 4))))
        elements.append(("M", draw(st.integers(1, 8))))
    if draw(st.booleans()):
        elements.append(("S", draw(st.integers(1, 4))))
    text = "".join(f"{length}{op}" for op, length in elements)
    read = sum(length for op, length in elements if op in "MIS")
    ref = sum(length for op, length in elements if op in "MD")
    return text, read, ref


@st.composite
def valid_lines(draw):
    """The fields of a valid line: mapped, or unmapped one of three ways,
    with any of the flag bits the reader ignores or keeps."""
    name = draw(st.text("abcXYZ019_:", min_size=1, max_size=6))
    flag = sum(draw(st.sets(st.sampled_from(FLAG_BITS))))
    cigar, read_length, span = draw(cigars())
    chrom = draw(st.sampled_from(sorted(LENGTHS)))
    pos = draw(st.integers(1, LENGTHS[chrom] - span + 1))
    unmapped = draw(st.sampled_from((None, None, None, "flag", "rname",
                                     "cigar")))
    if unmapped == "flag":
        flag |= FLAG_UNMAPPED
    elif unmapped == "rname":
        chrom, pos = "*", draw(st.integers(0, 9))
    elif unmapped == "cigar":
        cigar = "*"
    if unmapped is not None:
        read_length = draw(st.integers(1, 12))
    seq = draw(st.text("ACGTN", min_size=read_length, max_size=read_length))
    quals = draw(st.text(SANGER, min_size=read_length,
                         max_size=read_length))
    fields = [name, str(flag), chrom, str(pos),
              str(draw(st.integers(0, 254))), cigar, "*", "0", "0", seq,
              quals]
    if draw(st.booleans()):
        fields.append("NM:i:0")
    return fields


@st.composite
def batches(draw):
    """1-12 lines, up to two of them corrupted, one or two ways each."""
    lines = draw(st.lists(valid_lines(), min_size=1, max_size=12))
    bad = draw(st.sets(st.integers(0, len(lines) - 1), max_size=2))
    for index in bad:
        kinds = draw(st.lists(st.sampled_from(sorted(CORRUPTIONS)),
                              min_size=1, max_size=2, unique=True))
        for kind in sorted(kinds, key="count".__eq__):  # it drops fields
            lines[index] = CORRUPTIONS[kind](lines[index], draw)
    return ["\t".join(fields) for fields in lines]


def _same_reads(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        for name in ("name", "chrom", "pos", "seq", "cigar", "mapq",
                     "is_reverse", "is_duplicate"):
            assert getattr(mine, name) == getattr(theirs, name), name
        assert mine.quals.dtype == theirs.quals.dtype
        assert mine.quals.tolist() == theirs.quals.tolist()


def _line(**edits):
    """A valid mapped line on c1, with some columns replaced."""
    fields = dict(name="r", flag="0", chrom="c1", pos="10", mapq="60",
                  cigar="4M", seq="ACGT", quals="IIII")
    fields.update(edits)
    return "\t".join([*list(fields.values())[:6], "*", "0", "0",
                      fields["seq"], fields["quals"]])


@relaxed
@example(lines=[_line(), _line(pos="0"), _line(mapq="255")], chunk=2,
         extra=[(1, "")])
@example(lines=[_line(mapq="255"), _line(chrom="chrNope")], chunk=1,
         extra=[])
@example(lines=[_line(pos="158", quals="II\x19I"), _line(pos="158")],
         chunk=3, extra=[(0, "@CO\tnote")])
@example(lines=[_line(cigar="5M", seq="ACRT"), _line(seq="ACRT")], chunk=8,
         extra=[])
@given(lines=batches(), chunk=st.integers(1, 8),
       extra=st.lists(st.tuples(st.integers(0, 12),
                                st.sampled_from(("@CO\tnote", ""))),
                      max_size=3))
def test_batch_parser_matches_the_per_line_reference(lines, chunk, extra):
    want, failure = reference_parse(lines)
    # The same lines in a file: a header, then the reads with comment
    # and blank lines among them; linenos[i] is line i's 1-based number.
    text, linenos = ["@HD\tVN:1.6"], []
    for index, line in enumerate(lines):
        text.extend(other for at, other in extra if at == index)
        text.append(line)
        linenos.append(len(text))
    body = "\n".join(lines).encode("utf-8")
    file = "".join(f"{line}\n" for line in text).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(samlite, "CHUNK_LINES", chunk):
        path = os.path.join(tmp, "drawn.sam")
        with open(path, "wb") as handle:
            handle.write(file)
        outcomes = {
            "raw": lambda: samlite.ingest(body, REFERENCE),
            "served": lambda: samlite.ingest(body, REFERENCE,
                                             locate="sam[{}]".format),
            "file": lambda: samlite.ingest(
                file, REFERENCE, file=True,
                locate=lambda k: f"{path}:{k + 1}"),
            "read_sam": lambda: samlite.read_sam(path, REFERENCE),
        }
        for mode, call in outcomes.items():
            try:
                outcomes[mode] = call()
            except SamError as error:
                outcomes[mode] = error
    if failure is None:
        for mode in ("raw", "served", "file"):
            batch = outcomes[mode]
            assert batch.has_indel == any(read.has_indel for read in want)
            _same_reads(batch.reads(), want)
        _same_reads(outcomes["read_sam"], want)
        return
    index, error = failure
    raw = outcomes["raw"]
    assert isinstance(raw, SamError) and str(raw) == str(error)
    assert type(raw.__cause__) is (
        type(None) if type(error) is SamError else type(error))
    assert isinstance(outcomes["served"], SamError)
    assert str(outcomes["served"]) == f"sam[{index}]: {error}"
    for mode in ("file", "read_sam"):
        assert isinstance(outcomes[mode], SamError)
        assert str(outcomes[mode]) == f"{path}:{linenos[index]}: {error}"
