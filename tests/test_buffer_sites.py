"""A site that addresses a SAM buffer is the site of the same strings.

``RealignmentSite.from_buffer`` points into the bytes a SAM reader
checked (bases, and Phred characters that the compiled kernel reads in
place, less 33); a site built from strings joins them into a buffer of
its own (raw scores). The two constructors of the same reads must give
one site to every consumer: the kernels, the interpreted fallback of
the compiled tier, the FPGA model and the front half, whose batch from
a SAM reader and batch from a list of reads (``ReadBatch.of``) build
the same sites. And the product path, a flagless ``repro realign``,
builds no ``Read`` at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.genomics.read as read_module
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.engine import native
from repro.engine.autotune import dispatch_realign
from repro.genomics.cigar import Cigar
from repro.genomics.read import LENGTH, QUAL_AT, SEQ_AT, Read, ReadBatch
from repro.genomics.samlite import format_read, ingest, read_sam
from repro.realign.realigner import IndelRealigner
from repro.realign.site import RealignmentSite, SiteError, SiteLimits


def in_buffer(site: RealignmentSite, rng) -> RealignmentSite:
    """``site`` again, its reads laid into one buffer in a shuffled
    order, each as its bases, a tab and its Sanger characters, with
    filler around them."""
    order = rng.permutation(site.num_reads)
    parts, at = [], 0
    seq_at = np.zeros(site.num_reads, np.int64)
    qual_at = np.zeros(site.num_reads, np.int64)
    for j in order.tolist():
        filler = b"x" * int(rng.integers(0, 5)) + b"\t"
        seq = site.reads[j].encode("ascii")
        chars = (site.quals[j] + 33).astype(np.uint8).tobytes()
        seq_at[j] = at + len(filler)
        qual_at[j] = seq_at[j] + len(seq) + 1
        parts += [filler, seq, b"\t", chars]
        at = qual_at[j] + len(chars)
    return RealignmentSite.from_buffer(
        site.chrom, site.start, site.consensuses, b"".join(parts) + b"\n",
        seq_at, qual_at, site.lengths.copy(), site.limits)


@st.composite
def string_sites(draw):
    """Small ragged sites: reads of 1..70 bases with ``N``, qualities
    over the whole Sanger range, 1..4 consensuses at least as long as
    the longest read."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 70), min_size=1, max_size=12))
    longest = max(lengths)
    cons = tuple("".join(rng.choice(list("ACGTN"), p=[.24] * 4 + [.04],
                                    size=longest + draw(st.integers(0, 30))))
                 for _ in range(draw(st.integers(1, 4))))
    reads = []
    for n in lengths:
        source = cons[int(rng.integers(0, len(cons)))]
        at = int(rng.integers(0, len(source) - n + 1))
        read = list(source[at:at + n])
        for k in rng.integers(0, n, size=int(rng.integers(0, 3))).tolist():
            read[k] = "ACGTN"[int(rng.integers(0, 5))]
        reads.append("".join(read))
    quals = tuple(rng.integers(0, 94, size=n, dtype=np.uint8)
                  for n in lengths)
    return RealignmentSite("c", 7, cons, tuple(reads), quals), rng


@given(string_sites())
@settings(max_examples=40, deadline=None)
def test_both_forms_give_the_same_results_on_every_path(case):
    site, rng = case
    twin = in_buffer(site, rng)
    assert twin.reads == site.reads
    assert all(np.array_equal(a, b) for a, b in zip(twin.quals, site.quals))
    assert twin.unpruned_comparisons() == site.unpruned_comparisons()
    assert twin.input_bytes() == site.input_bytes()
    for kernel in ("native", "scalar", "fft"):
        want = dispatch_realign(site, kernel=kernel)
        got = dispatch_realign(in_buffer(site, rng), kernel=kernel)
        assert got.same_outputs(want), kernel
        np.testing.assert_array_equal(got.min_whd, want.min_whd)
        np.testing.assert_array_equal(got.min_whd_idx, want.min_whd_idx)
    with pytest.MonkeyPatch.context() as patch:  # REPRO_NATIVE=off
        patch.setattr(native, "get_backend", lambda: None)
        patch.setattr(native, "_fallback_warned", True)  # no warning
        fallback = dispatch_realign(in_buffer(site, rng), kernel="native")
    assert fallback.same_outputs(dispatch_realign(site, kernel="scalar"))
    model = AcceleratedIRSystem(SystemConfig.iracc())
    want = model.run([site])
    got = model.run([in_buffer(site, rng)])
    assert (got.comparisons, got.unpruned_comparisons, got.total_seconds) \
        == (want.comparisons, want.unpruned_comparisons, want.total_seconds)
    assert got.unit_results[0].cycles == want.unit_results[0].cycles
    assert got.unit_results[0].matches(dispatch_realign(site))


def test_a_buffer_site_keeps_the_structural_limits():
    buffer = b"ACGT\t!!!!\n"
    at = np.array([0]), np.array([5])
    site = RealignmentSite.from_buffer("c", 0, ("ACGTA",), buffer, *at,
                                       np.array([4]))
    assert site.spans() == (buffer, at[0], at[1], 33)
    assert site.reads == ("ACGT",) and site.quals[0].tolist() == [0] * 4
    with pytest.raises(SiteError, match="exceeds limit"):
        RealignmentSite.from_buffer("c", 0, ("ACGTA",), buffer, *at,
                                    np.array([4]),
                                    SiteLimits(max_read_length=3))
    with pytest.raises(SiteError, match="shorter than the longest"):
        RealignmentSite.from_buffer("c", 0, ("ACG",), buffer, *at,
                                    np.array([4]))
    with pytest.raises(SiteError, match="outside the buffer"):
        RealignmentSite.from_buffer("c", 0, ("ACGTA",), buffer,
                                    np.array([0]), np.array([7]),
                                    np.array([4]))
    with pytest.raises(SiteError, match="at least one read"):
        RealignmentSite.from_buffer("c", 0, ("ACG",), buffer,
                                    np.array([], np.int64),
                                    np.array([], np.int64),
                                    np.array([], np.int64))


def test_a_string_site_joins_its_reads_into_one_buffer():
    site = RealignmentSite("c", 0, ("ACGTA",), ("ACG", "TA"),
                           (np.array([1, 2, 255]), [0, 93]))
    buffer, seq_at, qual_at, phred = site.spans()
    assert (buffer, seq_at.tolist(), qual_at.tolist(), phred) \
        == (b"ACGTA\x01\x02\xff\x00\x5d", [0, 3], [5, 8], 0)
    assert site.reads == ("ACG", "TA")
    assert [q.tolist() for q in site.quals] == [[1, 2, 255], [0, 93]]


def test_a_batch_of_reads_lays_them_into_its_buffer():
    """Names (as UTF-8), bases and Sanger characters, each end to end:
    the front half reads a list's batch as it reads a SAM reader's."""
    reads = [Read("\u00e91", "c", 3, "ACGT", np.array([0, 1, 40, 93]),
                  Cigar.parse("4M")),
             Read("r2", None, 0, "GA", np.array([5, 6]))]
    batch = ReadBatch.of(reads)
    assert batch.buffer == b"\xc3\xa91r2ACGTGA!\"I~&'"
    assert batch.names(np.arange(2)) == [b"\xc3\xa91", b"r2"]
    assert batch._bases(np.arange(2), np.array([1, 0]),
                        np.array([3, 2])) == b"CGTGA"
    columns = batch.columns[[SEQ_AT, QUAL_AT, LENGTH]]
    site = RealignmentSite.from_buffer("c", 0, ("ACGTA",), batch.buffer,
                                       *columns[:, :1])
    assert site.reads == ("ACGT",)
    assert site.quals[0].tolist() == [0, 1, 40, 93]
    assert [(r.name, r.chrom, r.pos, r.seq, r.quals.tolist(), r.cigar)
            for r in batch.reads()] == [
        ("\u00e91", "c", 3, "ACGT", [0, 1, 40, 93], Cigar.parse("4M")),
        ("r2", None, 0, "GA", [5, 6], None)]


@pytest.fixture(scope="module")
def sample():
    from repro.genomics.simulate import SimulationProfile, simulate_sample

    return simulate_sample(
        {"chrA": 3_000, "chrB": 2_000},
        profile=SimulationProfile(coverage=40.0, indel_rate=3e-3), seed=5)


@pytest.mark.parametrize("compiled", [True, False])
def test_the_front_half_builds_the_same_sites_from_a_buffer(sample,
                                                             compiled):
    """The same reads as SAM bytes (read by the compiled tokenizer or
    its Python twin) and as a list: the same windows, sites whose
    reads and qualities are equal, and the same moved records."""
    body = "\n".join(format_read(read) for read in sample.reads).encode()
    reader = native.sam_ingester(sample.reference) if compiled else None
    if compiled and reader is None:
        pytest.skip("no compiled tier")
    batch = (reader(body) if compiled
             else ingest(body, sample.reference))
    realigner = IndelRealigner(sample.reference)
    got_targets, got = realigner.build_sites(batch)
    want_targets, want = realigner.build_sites(list(sample.reads))
    assert got_targets == want_targets
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert g.site.spans()[0] is body  # in place, not a copy
        assert (g.indices, g.indels, g.site.start, g.site.consensuses) \
            == (w.indices, w.indels, w.site.start, w.site.consensuses)
        assert g.site.reads == w.site.reads
        assert all(np.array_equal(a, b)
                   for a, b in zip(g.site.quals, w.site.quals))
    moved = realigner.decide(batch)[1]
    assert moved and moved == realigner.decide(list(sample.reads))[1]


def test_a_flagless_realign_builds_no_read(sample, tmp_path, monkeypatch):
    """``repro realign`` reads columns from ingest to ``--out``: no
    ``Read`` is built, checked (``__post_init__``) or not
    (``ReadBatch``'s decoder)."""
    from repro.__main__ import main
    from repro.genomics.fasta import write_reference
    from repro.genomics.samlite import write_sam

    write_reference(sample.reference, tmp_path / "ref.fa")
    write_sam(sample.reads, tmp_path / "in.sam", sample.reference)
    built = []

    def counting(real):
        def build(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)
        return build

    monkeypatch.setattr(read_module, "_unchecked",
                        counting(read_module._unchecked))
    monkeypatch.setattr(Read, "__post_init__", counting(Read.__post_init__))
    assert main(["realign", "--reference", str(tmp_path / "ref.fa"),
                 "--sam", str(tmp_path / "in.sam"),
                 "--out", str(tmp_path / "out.sam")]) == 0
    assert built == []
    # the probes see a read when one is built
    assert read_sam(tmp_path / "out.sam") and built
