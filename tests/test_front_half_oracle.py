"""Differential oracle for the realigner's front half (hypothesis).

``IndelRealigner.build_sites`` decides *what* gets realigned: which
loci are evidence, which intervals become targets, which reads each
target claims and in what order. The end-to-end oracles cannot see a
wrong decision there (they compare a commit with itself), so this suite
states the front half from its definitions and requires the product to
agree exactly:

- mismatch evidence is the per-position :func:`repro.align.pileup.pileup`
  read column by column (the loop ``identify_targets`` ran before it
  counted in arrays);
- membership is :func:`repro.realign.targets.reads_for_target` over
  *every* unclaimed read of the input, target after target in sorted
  order (the loop ``build_sites`` ran before it looked candidates up in
  a start-sorted index).

Both definitions are product code with product callers; only their
composition lives here. The example budget comes from the active
hypothesis profile: the tier-1 run uses the default one, CI reruns this
file with ``--hypothesis-profile=ci --hypothesis-seed=2019``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align.pileup import pileup
from repro.genomics.cigar import Cigar, CigarOp
from repro.genomics.intervals import cluster_points
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.realign.consensus import build_site
from repro.realign.realigner import IndelRealigner
from repro.realign.targets import (
    RealignmentTarget,
    TargetCreatorConfig,
    identify_targets,
)

# Registered before any @given below binds its settings: a test without
# max_examples of its own takes the active profile's. (Recent hypothesis
# ships a ``ci`` profile and selects it by itself when it sees a CI
# environment; this replaces it, so on such a runner every pass over
# this file gets the larger budget.)
settings.register_profile(
    "ci", max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
relaxed = settings(deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])

#: The consensus generators ``build_sites`` can run, by name; a new one
#: (ROADMAP 4(c)) gets a row here and is held to the same definitions.
BUILDERS = {"observed": build_site}


# -- the definitions ---------------------------------------------------


def definition_mismatch_loci(reads, reference, config):
    """One PileupColumn per position, one boolean read off each."""
    loci = {}
    for (chrom, pos), column in pileup(reads).items():
        if column.depth < config.mismatch_min_depth:
            continue
        ref_base = reference.fetch(chrom, pos, pos + 1)
        mismatches = sum(1 for base in column.bases if base != ref_base)
        if mismatches / column.depth >= config.mismatch_min_fraction:
            loci.setdefault(chrom, []).append(pos)
    return loci


def definition_targets(reads, reference, config):
    evidence = {}
    for read in reads:
        if read.is_mapped:
            for offset, _op, _length in read.cigar.indels():
                evidence.setdefault(read.chrom, []).append(read.pos + offset)
    for chrom, loci in definition_mismatch_loci(
            reads, reference, config).items():
        evidence.setdefault(chrom, []).extend(loci)
    max_span = config.limits.max_consensus_length // 2
    return sorted(
        RealignmentTarget(chrom, start, end)
        for chrom, loci in evidence.items()
        for start, end in cluster_points(
            loci, config.merge_distance, config.flank,
            reference.length(chrom), max_span)
    )


def definition_build_sites(reads, reference, config, limits, builder):
    """Every target is offered every read no earlier target claimed."""
    targets = definition_targets(reads, reference, config)
    claimed = set()
    windows = []
    for target in targets:
        unclaimed = [read for read in reads if id(read) not in claimed]
        built = builder(target, unclaimed, reference, limits)
        if built is not None:
            claimed.update(id(read) for read in built.reads)
            windows.append(built)
    return targets, windows


def assert_same_front_half(got, want):
    got_targets, got_windows = got
    want_targets, want_windows = want
    assert got_targets == want_targets
    assert len(got_windows) == len(want_windows)
    for g, w in zip(got_windows, want_windows):
        where = f"{w.site.chrom}:{w.site.start}"
        assert (g.site.chrom, g.site.start) == (w.site.chrom, w.site.start)
        assert [r.name for r in g.reads] == [r.name for r in w.reads], where
        assert all(a is b for a, b in zip(g.reads, w.reads)), where
        assert g.site.consensuses == w.site.consensuses, where
        assert g.site.reads == w.site.reads, where
        assert len(g.site.quals) == len(w.site.quals)
        assert all(np.array_equal(a, b)
                   for a, b in zip(g.site.quals, w.site.quals)), where
        assert g.indels == w.indels, where


def check(reads, reference, config, strategy="observed"):
    realigner = IndelRealigner(reference, creator_config=config)
    assert_same_front_half(
        realigner.build_sites(reads),
        definition_build_sites(reads, reference, config, realigner.limits,
                               BUILDERS[strategy]),
    )


# -- the inputs --------------------------------------------------------

BASES = "ACGT"


@st.composite
def cigars(draw):
    """Ragged transcripts: optional soft clips at either end, I and D
    anywhere between them -- first or last included, so a block edge can
    be an INDEL -- and transcripts that span no reference base at all."""
    ops = draw(st.lists(st.sampled_from("MMMMID"), min_size=0, max_size=5))
    elements = [(CigarOp.SOFT_CLIP, draw(st.integers(0, 4)))]
    for op in ops:
        longest = 24 if op == "M" else 4
        elements.append((CigarOp(op), draw(st.integers(1, longest))))
    elements.append((CigarOp.SOFT_CLIP, draw(st.integers(0, 4))))
    cigar = Cigar.from_elements(elements)
    if not len(cigar) or cigar.read_length == 0:
        cigar = Cigar.from_elements(
            elements + [(CigarOp.MATCH, draw(st.integers(1, 24)))])
    return cigar


def read_bases(rng, cigar, pos, haplotype):
    """Aligned bases copy ``haplotype`` (padded past its end); clipped
    and inserted bases are random."""
    parts = []
    for op, length in cigar:
        if op is CigarOp.MATCH:
            parts.append(haplotype[pos:pos + length].ljust(length, "A"))
        elif op is not CigarOp.DELETION:
            parts.append("".join(rng.choice(list(BASES), size=length)))
        if op.consumes_reference:
            pos += length
    return "".join(parts)


@st.composite
def front_half_inputs(draw):
    """(reads, reference, creator config) small enough to pile up
    position by position and hostile enough to tell the two sides
    apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config = TargetCreatorConfig(
        merge_distance=draw(st.integers(0, 30)),
        flank=draw(st.integers(0, 40)),
        mismatch_min_depth=draw(st.integers(1, 5)),
        mismatch_min_fraction=draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])),
    )
    # 1-3 contigs, all starting at 0, so coordinates overlap
    # numerically. Each gets a run of Ns and a donor haplotype that
    # differs at a few positions (reads copying it mismatch together).
    contigs, donors = {}, {}
    for c in range(draw(st.integers(1, 3))):
        length = draw(st.integers(130, 220))
        bases = rng.choice(list(BASES), size=length)
        n_start = draw(st.integers(0, length - 1))
        bases[n_start:n_start + draw(st.integers(0, 8))] = "N"
        donor = bases.copy()
        for snp in draw(st.lists(st.integers(0, length - 1), max_size=4)):
            donor[snp] = "N" if bases[snp] == "T" else "T"
        contigs[f"c{c}"] = "".join(bases)
        donors[f"c{c}"] = "".join(donor)
    reference = ReferenceGenome.from_dict(contigs)

    # A read may hang over the contig end only while the overhang stays
    # shallower than mismatch_min_depth: deeper, the per-position
    # definition fetches a base that does not exist and raises (the
    # product clips; tests/test_targets_consensus.py pins that).
    overhang_budget = {name: config.mismatch_min_depth - 1
                       for name in contigs}
    only_unmapped = draw(st.sampled_from([False] * 9 + [True]))
    reads = []

    def add(chrom, pos, cigar, donor_copy, duplicate=False):
        name = f"r{len(reads)}"
        if chrom is None:
            seq = "".join(rng.choice(list(BASES), size=cigar.read_length))
            reads.append(Read(name, None, 0, seq,
                              rng.integers(2, 41, size=len(seq)), None))
            return
        length = len(contigs[chrom])
        if pos + cigar.reference_length > length:
            if overhang_budget[chrom] > 0:
                overhang_budget[chrom] -= 1
            else:
                pos = length - cigar.reference_length
        haplotype = donors[chrom] if donor_copy else contigs[chrom]
        seq = list(read_bases(rng, cigar, pos, haplotype))
        for offset in draw(st.lists(st.integers(0, len(seq) - 1),
                                    max_size=2)):
            seq[offset] = draw(st.sampled_from("ACGTN"))
        reads.append(Read(name, chrom, pos, "".join(seq),
                          rng.integers(2, 41, size=len(seq)), cigar,
                          is_duplicate=duplicate))

    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["mapped"] * 6
                                    + ["unmapped", "duplicate"]))
        chrom = draw(st.sampled_from(sorted(contigs)))
        if only_unmapped or kind == "unmapped":
            chrom = None
        # Unordered starts from a narrow range: non-coordinate input
        # order, and several reads per ``pos``.
        pos = draw(st.integers(0, 129))
        add(chrom, pos, draw(cigars()), draw(st.booleans()),
            duplicate=kind == "duplicate")

    if draw(st.booleans()) and not only_unmapped:
        # More reads anchored in one target than a site may hold: the
        # (pos, name) truncation, and what the reads it drops do next.
        chrom = draw(st.sampled_from(sorted(contigs)))
        anchor = draw(st.integers(0, 90))
        shapes = [Cigar.parse(text)
                  for text in ("20M", "9M1D11M", "12M2I6M", "3S17M")]
        for _ in range(draw(st.integers(257, 290))):
            add(chrom, anchor + int(rng.integers(0, 8)),
                shapes[int(rng.integers(0, len(shapes)))],
                bool(rng.integers(0, 2)))
        order = rng.permutation(len(reads))
        reads = [reads[i] for i in order]
    return reads, reference, config


# -- the properties ----------------------------------------------------


@given(front_half_inputs())
@relaxed
def test_every_evidence_locus_matches_the_pileup_definition(case):
    """With nothing merged and nothing padded every locus is its own
    one-base target, so no interval can hide a column that differs."""
    reads, reference, config = case
    config = replace(config, merge_distance=0, flank=0)
    assert (identify_targets(reads, reference, config)
            == definition_targets(reads, reference, config))


@given(front_half_inputs(), st.sampled_from(sorted(BUILDERS)))
@relaxed
def test_build_sites_matches_the_definitions(case, strategy):
    """Identical targets, windows, ordered membership, site arrays and
    INDELs, for every consensus generator."""
    reads, reference, config = case
    check(reads, reference, config, strategy)


# -- examples the strategies are built to reach, pinned ------------------


def _read(name, chrom, pos, seq, cigar, **kwargs):
    return Read(name, chrom, pos, seq, np.full(len(seq), 30, np.uint8),
                None if cigar is None else Cigar.parse(cigar), **kwargs)


@pytest.fixture
def reference():
    rng = np.random.default_rng(18)
    return ReferenceGenome.from_dict({
        name: "".join(rng.choice(list(BASES), size=400))
        for name in ("c0", "c1")
    })


@pytest.mark.parametrize("strategy", sorted(BUILDERS))
def test_no_reads_and_only_unmapped_reads(reference, strategy):
    config = TargetCreatorConfig()
    check([], reference, config, strategy)
    check([_read("u0", None, 0, "ACGT", None),
           _read("u1", None, 0, "TTGA", None)], reference, config, strategy)
    assert IndelRealigner(reference).build_sites([]) == ([], [])


def test_a_read_anchored_in_two_targets_goes_to_the_first(reference):
    """Two narrow targets 60 apart and one read that starts in the
    first and ends in the second: the claim-order rule."""
    config = TargetCreatorConfig(merge_distance=10, flank=12,
                                 use_mismatch_clusters=False)
    fetch = reference.fetch
    reads = [
        _read("right", "c0", 150, fetch("c0", 150, 159)
              + fetch("c0", 161, 172), "9M2D11M"),
        _read("both", "c0", 96, fetch("c0", 96, 165), "69M"),
        _read("left", "c0", 90, fetch("c0", 90, 100)
              + fetch("c0", 101, 111), "10M1D10M"),
    ]
    realigner = IndelRealigner(reference, creator_config=config)
    targets, windows = realigner.build_sites(reads)
    assert [(t.start, t.end) for t in targets] == [(88, 113), (147, 172)]
    assert [[r.name for r in w.reads] for w in windows] == [
        ["both", "left"], ["right"]]
    check(reads, reference, config)


def test_two_reads_with_one_name_are_two_reads(reference):
    """Mates share a QNAME. The second target's read carries the name
    of a read the first target claimed, and still belongs to the
    second target's site: claims follow the object, not its name."""
    config = TargetCreatorConfig(merge_distance=10, flank=12,
                                 use_mismatch_clusters=False)
    fetch = reference.fetch
    reads = [
        _read("pair", "c0", 90, fetch("c0", 90, 100)
              + fetch("c0", 101, 111), "10M1D10M"),
        _read("pair", "c0", 250, fetch("c0", 250, 259)
              + fetch("c0", 261, 272), "9M2D11M"),
    ]
    _targets, windows = IndelRealigner(
        reference, creator_config=config).build_sites(reads)
    assert [len(w.reads) for w in windows] == [1, 1]
    assert windows[0].reads[0] is reads[0]
    assert windows[1].reads[0] is reads[1]
    check(reads, reference, config)


def test_a_read_spanning_no_reference_base_anchors_by_its_end(reference):
    """All soft clip: ``end == pos``, so the read's last position is
    ``pos - 1`` and the rule anchors it in a target that *ends* at its
    ``pos`` -- the one member that starts outside ``[start, end)`` on
    the right."""
    config = TargetCreatorConfig(merge_distance=10, flank=12,
                                 use_mismatch_clusters=False)
    fetch = reference.fetch
    reads = [
        _read("clipped", "c0", 113, "ACGTAC", "6S"),
        _read("left", "c0", 90, fetch("c0", 90, 100)
              + fetch("c0", 101, 111), "10M1D10M"),
    ]
    targets, windows = IndelRealigner(
        reference, creator_config=config).build_sites(reads)
    assert [(t.start, t.end) for t in targets] == [(88, 113)]
    assert [r.name for r in windows[0].reads] == ["clipped", "left"]
    check(reads, reference, config)
