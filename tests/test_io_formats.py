"""Unit tests for FASTA, FASTQ, and SAM-lite IO."""

import io

import numpy as np
import pytest

from repro.genomics.cigar import Cigar
from repro.genomics.fasta import (
    FastaError,
    parse_fasta,
    read_reference,
    reference_to_string,
    write_fasta,
)
from repro.genomics.fastq import (
    FastqError,
    FastqRecord,
    parse_fastq,
    write_fastq,
)
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.samlite import (
    SamError,
    format_read,
    parse_read,
    parse_sam,
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
        text = reference_to_string(ref)
        loaded = read_reference(io.StringIO(text))
        assert loaded.contig("1").sequence == "ACGTT"
        assert loaded.contig("2").sequence == "GGG"

    def test_bad_line_width(self):
        with pytest.raises(ValueError):
            write_fasta([("a", "ACGT")], io.StringIO(), line_width=0)


class TestFastq:
    def test_roundtrip(self, tmp_path):
        records = [
            FastqRecord("r1", "ACGT", np.array([30, 31, 32, 33], np.uint8)),
            FastqRecord("r2", "TT", np.array([2, 40], np.uint8)),
        ]
        path = tmp_path / "reads.fq"
        write_fastq(records, path)
        loaded = list(parse_fastq(path))
        assert [r.name for r in loaded] == ["r1", "r2"]
        assert loaded[0].quals.tolist() == [30, 31, 32, 33]

    def test_length_mismatch_rejected(self):
        text = "@r\nACGT\n+\n!!\n"
        with pytest.raises(FastqError):
            list(parse_fastq(io.StringIO(text)))

    def test_bad_header_rejected(self):
        with pytest.raises(FastqError):
            list(parse_fastq(io.StringIO("r\nACGT\n+\n!!!!\n")))

    def test_record_validates_quals(self):
        with pytest.raises(FastqError):
            FastqRecord("r", "ACGT", np.array([30], np.uint8))

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("score", [300, 256, -1])
    def test_record_range_checks_before_narrowing(self, score, as_array):
        """300 narrowed to uint8 first would pass as 44."""
        quals = [30, score, 30, 30]
        with pytest.raises(FastqError, match="'wide'"):
            FastqRecord("wide", "ACGT", np.array(quals) if as_array else quals)
        assert FastqRecord("edge", "AC", [0, 93]).quals.dtype == np.uint8


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
        loaded = list(parse_sam(path))
        assert [r.name for r in loaded] == ["r1", "r2"]
        header = path.read_text().splitlines()[1]
        assert header == "@SQ\tSN:1\tLN:200"

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
            list(parse_sam(path))
        assert str(from_path.value).startswith(f"{path}:{lineno}: ")
        assert message in str(from_path.value)
        with pytest.raises(SamError, match=f"^<stream>:{lineno}: "):
            list(parse_sam(io.StringIO(text)))


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
        ("missing-sam", "No such file or directory"),
        ("headerless-fasta", "sequence data before any FASTA header"),
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
        else:
            column, value = {"cigar": (5, "10M5Q"), "numeric": (4, "x"),
                             "seq-qual": (10, "II")}[case]
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
