"""Unit tests for FASTA and SAM-lite IO."""

import io

import numpy as np
import pytest

from repro.genomics.cigar import Cigar
from repro.genomics.fasta import (
    FastaError,
    parse_fasta,
    read_reference,
    write_fasta,
    write_reference,
)
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.samlite import (
    SamError,
    format_read,
    ingest,
    parse_read,
    read_sam,
    write_sam,
)


class TestFasta:
    def test_parse_multi_contig_wrapped(self):
        text = ">chr1 description here\nACGT\nacgt\n>chr2\nTTTT\n"
        records = parse_fasta(io.StringIO(text))
        assert records == [("chr1", "ACGTACGT"), ("chr2", "TTTT")]

    def test_parse_rejects_headerless_data(self):
        with pytest.raises(FastaError):
            parse_fasta(io.StringIO("ACGT\n"))

    def test_parse_rejects_empty(self):
        with pytest.raises(FastaError):
            parse_fasta(io.StringIO(""))

    def test_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "ref.fa"
        write_fasta([("a", "ACGT" * 30)], path, line_width=50)
        assert parse_fasta(path) == [("a", "ACGT" * 30)]

    def test_reference_roundtrip(self):
        ref = ReferenceGenome.from_dict({"1": "ACGTT", "2": "GGG"})
        text = io.StringIO()
        write_reference(ref, text)
        text.seek(0)
        loaded = read_reference(text)
        assert loaded.contig("1").sequence == "ACGTT"
        assert loaded.contig("2").sequence == "GGG"

    def test_bad_line_width(self):
        with pytest.raises(ValueError):
            write_fasta([("a", "ACGT")], io.StringIO(), line_width=0)


class TestSamLite:
    def make_read(self, **kwargs):
        defaults = dict(
            name="r1", chrom="1", pos=99, seq="ACGT",
            quals=np.array([30, 30, 30, 30], np.uint8),
            cigar=Cigar.parse("2M1I1M"), mapq=55,
            is_reverse=True, is_duplicate=True,
        )
        defaults.update(kwargs)
        return Read(**defaults)

    def test_format_fields(self):
        line = format_read(self.make_read())
        fields = line.split("\t")
        assert fields[0] == "r1"
        assert int(fields[1]) == 0x10 | 0x400
        assert fields[3] == "100"  # 1-based POS
        assert fields[5] == "2M1I1M"

    def test_roundtrip(self):
        read = self.make_read()
        parsed = parse_read(format_read(read))
        assert parsed.name == read.name
        assert parsed.pos == read.pos
        assert str(parsed.cigar) == str(read.cigar)
        assert parsed.is_reverse and parsed.is_duplicate
        assert parsed.quals.tolist() == read.quals.tolist()

    def test_unmapped_roundtrip(self):
        read = Read("u", None, 0, "ACGT", np.full(4, 20, np.uint8))
        parsed = parse_read(format_read(read))
        assert not parsed.is_mapped

    def test_file_roundtrip_with_header(self, tmp_path):
        ref = ReferenceGenome.from_dict({"1": "A" * 200})
        reads = [self.make_read(), self.make_read(name="r2", pos=10)]
        path = tmp_path / "aln.sam"
        write_sam(reads, path, reference=ref)
        loaded = read_sam(path)
        assert [r.name for r in loaded] == ["r1", "r2"]
        header = path.read_text().splitlines()[1]
        assert header == "@SQ\tSN:1\tLN:200"

    def test_parsed_quals_are_read_only_views_of_one_buffer(self):
        """Parsed reads own no quality array: each is a read-only view
        of the one array its batch's reads decode, so an in-place write
        raises. The paths that change qualities make new arrays and still
        work."""
        from repro.workloads.adversarial import (
            AdversarialProfile,
            _scramble_tail,
        )

        lines = [line for line in self._sam_lines()
                 if not line.startswith("@")]
        first, second, _ = ingest("\n".join(lines).encode()).reads()
        assert first.quals.base is second.quals.base
        assert not first.quals.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.quals[0] = 1
        recalibrated = first.with_quals(np.full(len(first), 7, np.uint8))
        assert recalibrated.quals.tolist() == [7] * len(first)
        profile = AdversarialProfile(tail_fraction=0.5)
        scrambled = _scramble_tail(second, profile,
                                   np.random.default_rng(0))
        assert scrambled.quals.tolist() == [30, 30] + [profile.tail_quality] * 2
        assert second.quals.tolist() == [30] * 4

    def test_malformed_line_rejected(self):
        with pytest.raises(SamError):
            parse_read("too\tfew\tfields")

    def _sam_lines(self):
        reads = [self.make_read(name=f"r{i}", pos=10 * i) for i in range(3)]
        sink = io.StringIO()
        write_sam(reads, sink, ReferenceGenome.from_dict({"1": "A" * 200}))
        return sink.getvalue().splitlines()

    @pytest.mark.parametrize("column,value,message", [
        (5, "10M5Q", "malformed CIGAR '10M5Q' near offset 3"),
        (3, "ten", "bad numeric field in SAM line"),
        (10, "II", "read 'r1': 2 quality scores for 4 bases"),
        (10, "I\x19II", "outside Phred+33 range"),
    ], ids=["cigar", "numeric", "seq-qual-length", "quality"])
    def test_bad_line_is_located(self, tmp_path, column, value, message):
        # Whatever a line raises -- SamError, CigarError, QualityError,
        # Read's own ValueError -- comes out as SamError path:line.
        lines = self._sam_lines()
        fields = lines[-2].split("\t")  # second of three reads
        fields[column] = value
        lines[-2] = "\t".join(fields)
        text = "\n".join(lines) + "\n"
        lineno = len(lines) - 1
        path = tmp_path / "bad.sam"
        path.write_text(text)
        with pytest.raises(SamError) as from_path:
            read_sam(path)
        assert str(from_path.value).startswith(f"{path}:{lineno}: ")
        assert message in str(from_path.value)
        with pytest.raises(SamError, match=f"^<stream>:{lineno}: "):
            read_sam(io.StringIO(text))


class TestMalformedInputCli:
    """A bad input is one located ``error:`` line and exit 2, never a
    traceback, and nothing is written."""

    @pytest.fixture(scope="class")
    def sample(self, tmp_path_factory):
        from repro.__main__ import main as cli_main

        out = tmp_path_factory.mktemp("bad-input") / "s"
        assert cli_main(["simulate", "--out", str(out), "--length", "3000",
                         "--coverage", "8", "--seed", "3"]) == 0
        return out

    @pytest.mark.parametrize("case,expect", [
        ("cigar", "bad.sam:12: malformed CIGAR '10M5Q' near offset 3"),
        ("numeric", "bad.sam:12: bad numeric field in SAM line"),
        ("seq-qual", "bad.sam:12: read "),
        ("off-contig", "bad.sam:12: RNAME 'chrNope' is not a contig of "
                       "the reference"),
        ("past-end", "bad.sam:12: alignment chr22:2990-"),
        ("non-utf8", "bad.sam:12: line is not UTF-8: 'utf-8' codec can't "
                     "decode byte 0xff"),
        ("missing-sam", "No such file or directory"),
        ("headerless-fasta", "sequence data before any FASTA header"),
        ("bad-base-fasta", "bad-base.fa:3: invalid base 'R' at position 2"),
        ("duplicate-fasta", "duplicate.fa:3: duplicate contig name 'chr22'"),
    ])
    def test_exits_2_with_one_located_line(self, sample, capsys, case,
                                           expect):
        from repro.__main__ import main as cli_main

        reference, sam = sample / "reference.fa", sample / "aligned.sam"
        if case == "missing-sam":
            sam = sample / "nope.sam"
        elif case == "headerless-fasta":
            reference = sample / "headerless.fa"
            reference.write_text("ACGTACGT\n")
        elif case == "bad-base-fasta":
            reference = sample / "bad-base.fa"
            reference.write_text(">chr22\nACGTACGT\nACRTACGT\n")
        elif case == "duplicate-fasta":
            reference = sample / "duplicate.fa"
            reference.write_text(">chr22\nACGT\n>chr22\nACGT\n")
        elif case == "non-utf8":
            lines = sam.read_bytes().split(b"\n")
            lines[11] += b"\tXX:Z:a\xffb"
            sam = sample / "bad.sam"
            sam.write_bytes(b"\n".join(lines))
        else:
            column, value = {"cigar": (5, "10M5Q"), "numeric": (4, "x"),
                             "seq-qual": (10, "II"),
                             "off-contig": (2, "chrNope"),
                             "past-end": (3, "2990")}[case]
            lines = sam.read_text().splitlines()
            fields = lines[11].split("\t")
            fields[column] = value
            lines[11] = "\t".join(fields)
            sam = sample / "bad.sam"
            sam.write_text("\n".join(lines) + "\n")
        out = sample / "out.sam"
        capsys.readouterr()
        assert cli_main(["realign", "--reference", str(reference),
                         "--sam", str(sam), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expect in err and "Traceback" not in err
        assert not out.exists()
