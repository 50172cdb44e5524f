"""The ``realign`` reply carries the diff: the reads that moved.

The server answers with ``moved: [[index, pos, cigar], ...]`` and the
client patches columns 4 and 6 of the lines it sent; ``repro realign``
patches the same columns of its input file. Four layers:

- the client's validation of a reply, on hand-built frames (no server);
- a hypothesis property over SAM lines carrying what the reader
  ignores (RNEXT/PNEXT/TLEN, ``NM``/``MD``/``RG`` tags, flag bits
  0x1/0x2/0x40/0x80): unmoved lines come back verbatim, moved lines
  differ from the sent line in POS and CIGAR only, and those two
  columns are the batch realigner's;
- one TCP round trip on a tagged paired-end job;
- ``repro realign`` on the same drawn lines, written to a file with a
  header: its output is the header verbatim and the same lines the
  server returns.

CI runs both properties with ``--hypothesis-profile=ci
--hypothesis-seed=2019``.
"""

import asyncio
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main as cli_main
from repro.engine import EngineConfig
from repro.genomics.fasta import write_reference
from repro.genomics.samlite import format_read
from repro.genomics.simulate import SimulationProfile, simulate_sample
from repro.realign.realigner import IndelRealigner
from repro.serve.client import ServiceClient, patch_moved
from repro.serve.protocol import ProtocolError
from repro.serve.server import RealignmentServer

# A test without max_examples of its own takes the active profile's
# (the ``ci`` profile is registered in tests/conftest.py).
relaxed = settings(deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

LINES = ["r0\t0\tchr1\t10\t60\t4M\t=\t30\t24\tACGT\tIIII\tNM:i:0",
         "r1\t16\tchr1\t20\t60\t4M\t*\t0\t0\tACGT\tIIII"]


class _FrameClient(ServiceClient):
    """A client whose every call is answered by one hand-built frame."""

    def __init__(self, frame: dict):
        super().__init__()
        self.frame = frame

    async def _call(self, message: dict) -> dict:
        return self.frame


def _realign_with(frame: dict):
    return asyncio.run(_FrameClient(frame).realign(LINES))


class TestClientValidatesTheDiff:
    def test_patches_pos_and_cigar_only(self):
        result = _realign_with({"ok": True, "moved": [[0, 12, "1M1D3M"]],
                                "sites": 1, "latency_ms": 2.5})
        assert result.sam == [
            "r0\t0\tchr1\t12\t60\t1M1D3M\t=\t30\t24\tACGT\tIIII\tNM:i:0",
            LINES[1],
        ]
        assert (result.sites, result.latency_ms) == (1, 2.5)

    def test_nothing_moved_returns_the_lines_sent(self):
        result = _realign_with({"ok": True, "moved": [], "sites": 0})
        assert result.sam == LINES

    @pytest.mark.parametrize("moved", [
        None,                                # no diff at all
        "0,12,4M",                           # not a list
        [[0, 12]],                           # entry too short
        [(0, 12, "4M")],                     # entry not a list
        [[2, 12, "4M"]],                     # index past the end
        [[-1, 12, "4M"]],                    # negative index
        [["0", 12, "4M"]],                   # index not an integer
        [[True, 12, "4M"]],                  # a bool is not an index
        [[0, 12, "4M"], [0, 13, "4M"]],      # index repeated
        [[0, 0, "4M"]],                      # pos < 1
        [[0, 12.0, "4M"]],                   # pos not an integer
        [[0, "12", "4M"]],
        [[0, 12, 4]],                        # cigar not a string
        [[0, 12, None]],
    ])
    def test_malformed_diff_is_a_protocol_error(self, moved):
        frame = {"ok": True, "sites": 1}
        if moved is not None:
            frame["moved"] = moved
        with pytest.raises(ProtocolError):
            _realign_with(frame)

    def test_a_line_without_pos_and_cigar_cannot_be_patched(self):
        with pytest.raises(ProtocolError, match=r"sam\[0\]"):
            patch_moved(["r0\t0\tchr1"], [[0, 12, "4M"]])


# -- served output against the batch realigner -------------------------

#: 96 reads, 20 of which the realigner moves.
SAMPLE = simulate_sample(
    {"chrS": 2000},
    profile=SimulationProfile(coverage=12, indel_rate=0.003), seed=3,
)
BEFORE = [format_read(read) for read in SAMPLE.reads]
AFTER = [format_read(read)
         for read in IndelRealigner(
             SAMPLE.reference, engine=EngineConfig(workers=1),
         ).realign(SAMPLE.reads)[0]]
#: The first read the realigner moves.
MOVED = next(i for i, (before, after) in enumerate(zip(BEFORE, AFTER))
             if before != after)


def _expected(sent):
    """The sent lines, with POS and CIGAR taken from the batch
    realigner's output wherever it moved the read."""
    expected = []
    for line, before, after in zip(sent, BEFORE, AFTER):
        if before != after:
            fields = line.split("\t")
            out = after.split("\t")
            fields[3], fields[5] = out[3], out[5]
            line = "\t".join(fields)
        expected.append(line)
    return expected


def _decorate(line, flag_bits, rnext, pnext, tlen, tags):
    fields = line.split("\t")
    fields[1] = str(int(fields[1]) | flag_bits)
    fields[6:9] = [rnext, str(pnext), str(tlen)]
    return "\t".join(fields + list(tags))


async def _round_trip(host, port, lines):
    async with await ServiceClient.open(host, port) as client:
        return (await client.realign(lines)).sam


@pytest.fixture(scope="module")
def served():
    """One server on an event loop of its own thread, for the module."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = RealignmentServer(SAMPLE.reference)
    address = asyncio.run_coroutine_threadsafe(
        server.start(port=0), loop).result(60)
    try:
        yield address
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(60)
        assert not thread.is_alive()
        loop.close()


tags = st.one_of(
    st.integers(0, 30).map("NM:i:{}".format),
    st.from_regex(r"[0-9]{1,3}(\^?[ACGT][0-9]{1,3}){0,3}",
                  fullmatch=True).map("MD:Z:{}".format),
    st.sampled_from(["grp1", "lib.A", "rg-2"]).map("RG:Z:{}".format),
)
decorations = st.tuples(
    st.sets(st.sampled_from([0x1, 0x2, 0x40, 0x80])).map(sum),
    st.sampled_from(["*", "=", "chrS", "chrMate"]),
    st.integers(0, 10 ** 6),
    st.integers(-2000, 2000),
    st.lists(tags, max_size=3),
)


#: A header the realign CLI must copy verbatim.
HEADER = ["@HD\tVN:1.6\tSO:coordinate", "@SQ\tSN:chrS\tLN:2000",
          "@RG\tID:grp1\tSM:sample1", "@CO\tfree text"]


def _decorated(drawn):
    """Every line decorated, cycling through what was drawn."""
    return [_decorate(line, *drawn[i % len(drawn)])
            for i, line in enumerate(BEFORE)]


def _text(lines):
    return "".join(f"{line}\n" for line in lines)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli-diff")
    write_reference(SAMPLE.reference, workdir / "reference.fa")
    return workdir


def _cli_realign(workdir, text):
    """``repro realign`` in-process on ``text``; the --out file's text,
    its line ends as written."""
    sam, out = workdir / "in.sam", workdir / "out.sam"
    sam.write_bytes(text.encode("utf-8"))
    assert cli_main(["realign", "--reference", str(workdir / "reference.fa"),
                     "--sam", str(sam), "--out", str(out)]) == 0
    return out.read_bytes().decode("utf-8")


class TestServedPathIsLossless:
    def test_the_sample_moves_some_reads(self):
        assert 0 < sum(b != a for b, a in zip(BEFORE, AFTER)) < len(BEFORE)

    @relaxed
    @given(st.lists(decorations, min_size=1, max_size=16))
    def test_unmoved_lines_come_back_verbatim(self, served, drawn):
        sent = _decorated(drawn)
        assert asyncio.run(_round_trip(*served, sent)) == _expected(sent)

    @relaxed
    @given(st.lists(decorations, min_size=1, max_size=16))
    def test_cli_writes_the_served_lines(self, cli_dir, drawn):
        sent = _decorated(drawn)
        assert (_cli_realign(cli_dir, _text(HEADER + sent))
                == _text(HEADER + _expected(sent)))

    def test_cli_on_a_headerless_file(self, cli_dir):
        assert _cli_realign(cli_dir, _text(BEFORE)) == _text(AFTER)

    def test_cli_realigns_from_a_fifo(self, cli_dir):
        """``--sam`` is read once, so a pipe works: the output is
        ``cmp``-identical to the same file's given by path."""
        text = _text(HEADER + BEFORE)
        fifo, out = cli_dir / "reads.fifo", cli_dir / "fifo-out.sam"
        os.mkfifo(fifo)
        writer = threading.Thread(daemon=True,
                                  target=lambda: fifo.write_text(text))
        writer.start()
        assert cli_main(["realign", "--reference",
                         str(cli_dir / "reference.fa"),
                         "--sam", str(fifo), "--out", str(out)]) == 0
        writer.join(60)
        assert out.read_bytes() == _cli_realign(cli_dir, text).encode()
        assert out.read_text() == _text(HEADER + AFTER)

    @pytest.mark.parametrize("kind", ["fresh", "existing", "symlink"])
    def test_cli_out_is_a_new_file_or_written_through_a_symlink(
            self, tmp_path, cli_dir, kind):
        """An existing ``--out`` is unlinked and created again, not
        truncated in place (truncating waits for the old contents'
        writeback); a symlink is written through, its target
        replaced."""
        sam, out = tmp_path / "in.sam", tmp_path / "out.sam"
        sam.write_text(_text(HEADER + BEFORE))
        target, old = tmp_path / "target.sam", tmp_path / "old.sam"
        if kind == "existing":
            out.write_text("old contents\n")
            os.link(out, old)  # keeps the old inode, and shows truncation
        elif kind == "symlink":
            target.write_text("old contents\n")
            out.symlink_to(target)
        assert cli_main(["realign", "--reference",
                         str(cli_dir / "reference.fa"),
                         "--sam", str(sam), "--out", str(out)]) == 0
        assert out.read_text() == _text(HEADER + AFTER)
        if kind == "symlink":
            assert out.is_symlink() and target.read_text() == out.read_text()
        else:
            assert out.is_file() and not out.is_symlink()
        if kind == "existing":
            assert old.read_text() == "old contents\n"
            assert not os.path.samefile(out, old)

    @pytest.mark.parametrize("kind", ["crlf", "non-ascii tag",
                                      "non-ascii name", "blank line",
                                      "header only"])
    def test_cli_reads_what_the_tokenizer_declines(self, cli_dir, kind):
        """Input the compiled tokenizer declines is read in Python, as a
        text-mode read of the file reads it: CRLF line ends come out as
        LF, a non-ASCII tag, a moved read's non-ASCII QNAME and a blank
        line verbatim, a header-only file as itself."""
        lines, expected = HEADER + BEFORE, HEADER + AFTER
        if kind == "crlf":
            text = _text(lines).replace("\n", "\r\n")
        elif kind == "non-ascii tag":
            lines = lines[:7] + [lines[7] + "\tXN:Z:caf\u00e9"] + lines[8:]
            expected = (expected[:7] + [expected[7] + "\tXN:Z:caf\u00e9"]
                        + expected[8:])
            text = _text(lines)
        elif kind == "non-ascii name":
            at = len(HEADER) + MOVED
            lines, expected = list(lines), list(expected)
            lines[at] = "caf\u00e9-" + lines[at]
            expected[at] = "caf\u00e9-" + expected[at]
            text = _text(lines)
        elif kind == "blank line":
            lines, expected = lines + [""], expected + [""]
            text = _text(lines)
        else:
            lines = expected = HEADER
            text = _text(lines)
        assert _cli_realign(cli_dir, text) == _text(expected)

    def test_a_moved_read_with_a_non_ascii_name_round_trips(self, served):
        """The compiled pass declines a body with a non-ASCII QNAME; the
        Python reader decodes the name from the body as UTF-8, and the
        read moves as it does under an ASCII name."""
        sent = list(BEFORE)
        sent[MOVED] = "caf\u00e9-" + sent[MOVED]
        assert asyncio.run(_round_trip(*served, sent)) == _expected(sent)

    def test_tagged_paired_end_job_round_trip(self):
        # Reads 2k and 2k + 1 are mates: first and last segment.
        sent = []
        for i, line in enumerate(BEFORE):
            fields = line.split("\t")
            mate = BEFORE[min(i ^ 1, len(BEFORE) - 1)].split("\t")
            pos, mate_pos = int(fields[3]), int(mate[3])
            span = abs(mate_pos - pos) + len(fields[9])
            first = i % 2 == 0
            sent.append(_decorate(
                line, 0x1 | 0x2 | (0x40 if first else 0x80), "=", mate_pos,
                span if first else -span,
                [f"NM:i:{i % 3}", f"MD:Z:{len(fields[9])}", "RG:Z:lib1"],
            ))

        async def scenario():
            server = RealignmentServer(SAMPLE.reference)
            host, port = await server.start(port=0)
            try:
                return await _round_trip(host, port, sent)
            finally:
                await server.close()

        assert asyncio.run(scenario()) == _expected(sent)
