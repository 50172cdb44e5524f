"""Unit tests for target identification and consensus generation."""

import numpy as np
import pytest

from repro.genomics.cigar import Cigar, CigarOp
from repro.genomics.read import Read, ReadBatch, cigar_string
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sequence import random_bases
from repro.realign.consensus import (
    ObservedIndel,
    apply_indel_to_window,
    build_site,
    observed_indels,
    realigned_read_placement,
)
from repro.realign.site import SiteLimits
from repro.realign.targets import (
    RealignmentTarget,
    TargetCreatorConfig,
    identify_targets,
    reads_for_target,
)


def make_read(name, pos, seq, cigar, chrom="1", dup=False):
    return Read(name, chrom, pos, seq, np.full(len(seq), 30, np.uint8),
                Cigar.parse(cigar), is_duplicate=dup)


@pytest.fixture
def reference():
    rng = np.random.default_rng(77)
    return ReferenceGenome.from_dict({"1": random_bases(5_000, rng)})


class TestTargetIdentification:
    def test_indel_read_seeds_target(self, reference):
        reads = [make_read("a", 1000, "A" * 50, "20M2D30M")]
        targets = identify_targets(reads, reference,
                                   TargetCreatorConfig(use_mismatch_clusters=False))
        assert len(targets) == 1
        target = targets[0]
        assert target.start <= 1020 < target.end

    def test_nearby_indels_merge(self, reference):
        reads = [
            make_read("a", 1000, "A" * 50, "20M2D30M"),
            make_read("b", 1040, "A" * 50, "30M1I19M"),
        ]
        config = TargetCreatorConfig(merge_distance=100,
                                     use_mismatch_clusters=False)
        assert len(identify_targets(reads, reference, config)) == 1

    def test_distant_indels_stay_separate(self, reference):
        reads = [
            make_read("a", 500, "A" * 50, "20M2D30M"),
            make_read("b", 3000, "A" * 50, "30M1I19M"),
        ]
        config = TargetCreatorConfig(merge_distance=100,
                                     use_mismatch_clusters=False)
        assert len(identify_targets(reads, reference, config)) == 2

    def test_clean_reads_no_targets(self, reference):
        seq = reference.fetch("1", 100, 150)
        reads = [make_read("a", 100, seq, "50M")]
        assert identify_targets(reads, reference) == []

    def test_mismatch_cluster_seeds_target(self, reference):
        # Four reads agreeing on non-reference bases at one locus.
        window = reference.fetch("1", 2000, 2050)
        wrong = "".join("A" if c != "A" else "C" for c in window)
        reads = [make_read(f"r{i}", 2000, wrong, "50M") for i in range(4)]
        targets = identify_targets(reads, reference)
        assert targets

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            RealignmentTarget("1", 10, 10)
        with pytest.raises(ValueError):
            RealignmentTarget("1", -1, 10)

    def test_describe_is_one_based(self):
        assert RealignmentTarget("22", 9_999, 12_000).describe() == \
            "22:10000-12000"

    def test_oversized_cluster_is_split(self, reference):
        config = TargetCreatorConfig(
            merge_distance=2_000, flank=0, use_mismatch_clusters=False,
            limits=SiteLimits(max_consensus_length=512),
        )
        reads = [
            make_read(f"r{i}", pos, "A" * 50, "20M2D30M")
            for i, pos in enumerate(range(500, 2_500, 100))
        ]
        targets = identify_targets(reads, reference, config)
        assert len(targets) > 1
        assert all(t.span <= 256 for t in targets)


class TestReadsForTarget:
    def test_anchored_rule_and_duplicates(self, reference):
        target = RealignmentTarget("1", 1000, 1400)
        inside = make_read("in", 1100, "A" * 50, "50M")
        dup = make_read("dup", 1100, "A" * 50, "50M", dup=True)
        outside = make_read("out", 2000, "A" * 50, "50M")
        assert reads_for_target(target, [inside, dup, outside]) == [inside]


class TestObservedIndels:
    def test_collects_with_support(self):
        reads = [
            make_read("a", 100, "A" * 50, "20M2D30M"),
            make_read("b", 90, "A" * 50, "30M2D20M"),
            make_read("c", 100, "A" * 52, "20M2I30M"),
        ]
        support = observed_indels(ReadBatch.of(reads), np.arange(3))
        deletion = ObservedIndel(120, CigarOp.DELETION, 2)
        assert support[deletion] == 2
        insertion = ObservedIndel(120, CigarOp.INSERTION, 2, inserted="AA")
        assert support[insertion] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservedIndel(10, CigarOp.MATCH, 2)
        with pytest.raises(ValueError):
            ObservedIndel(10, CigarOp.INSERTION, 2, inserted="A")


class TestApplyIndel:
    def test_deletion(self):
        indel = ObservedIndel(12, CigarOp.DELETION, 3)
        assert apply_indel_to_window("ABCDEFGHIJ", 10, indel) == "ABFGHIJ"

    def test_insertion_before_position(self):
        indel = ObservedIndel(12, CigarOp.INSERTION, 2, inserted="NN")
        assert apply_indel_to_window("ABCDEFGHIJ", 10, indel) == "ABNNCDEFGHIJ"

    def test_insertion_needs_left_anchor(self):
        indel = ObservedIndel(10, CigarOp.INSERTION, 2, inserted="NN")
        assert apply_indel_to_window("ABCDEFGHIJ", 10, indel) is None

    def test_deletion_outside_window(self):
        indel = ObservedIndel(18, CigarOp.DELETION, 5)
        assert apply_indel_to_window("ABCDEFGHIJ", 10, indel) is None


def placement(*args):
    """``realigned_read_placement`` with its CIGAR as text."""
    pos, kinds, lengths = realigned_read_placement(*args)
    return pos, cigar_string(kinds, lengths)


class TestReadPlacement:
    def test_reference_consensus(self):
        assert placement(None, 100, 7, 20) == (107, "20M")

    def test_deletion_spanning(self):
        indel = ObservedIndel(150, CigarOp.DELETION, 5)
        assert placement(indel, 100, 30, 40) == (130, "20M5D20M")

    def test_deletion_read_after(self):
        indel = ObservedIndel(150, CigarOp.DELETION, 5)
        assert placement(indel, 100, 60, 20) == (165, "20M")

    def test_deletion_read_before(self):
        indel = ObservedIndel(150, CigarOp.DELETION, 5)
        assert placement(indel, 100, 10, 20) == (110, "20M")

    def test_insertion_spanning(self):
        indel = ObservedIndel(150, CigarOp.INSERTION, 4, inserted="TTTT")
        # Insertion occupies consensus offsets [50, 54).
        assert placement(indel, 100, 40, 30) == (140, "10M4I16M")

    def test_insertion_read_after(self):
        indel = ObservedIndel(150, CigarOp.INSERTION, 4, inserted="TTTT")
        assert placement(indel, 100, 60, 20) == (156, "20M")

    def test_insertion_read_starts_inside(self):
        indel = ObservedIndel(150, CigarOp.INSERTION, 4, inserted="TTTT")
        assert placement(indel, 100, 52, 20) == (150, "2S18M")

    def test_insertion_clipped_at_read_end(self):
        indel = ObservedIndel(150, CigarOp.INSERTION, 4, inserted="TTTT")
        # Read covers only the first 2 inserted bases.
        assert placement(indel, 100, 40, 12) == (140, "10M2I")


class TestBuildSite:
    def test_build_and_generate(self, reference):
        reads = [
            make_read(f"r{i}", 1000 + 3 * i, "A" * 50, "20M2D30M")
            for i in range(4)
        ]
        target = RealignmentTarget("1", 1000, 1400)
        window = build_site(target, ReadBatch.of(reads), range(4), reference)
        assert window is not None
        site = window.site
        assert site.num_consensuses >= 2
        assert site.num_reads == 4
        assert window.indices == (0, 1, 2, 3)
        assert window.indels[0] is None
        assert all(i is not None for i in window.indels[1:])

    def test_no_indels_no_site(self, reference):
        seq = reference.fetch("1", 1000, 1050)
        reads = [make_read("a", 1000, seq, "50M")]
        target = RealignmentTarget("1", 1000, 1100)
        assert build_site(target, ReadBatch.of(reads), [0],
                          reference) is None

    def test_no_reads_no_site(self, reference):
        target = RealignmentTarget("1", 1000, 1100)
        assert build_site(target, ReadBatch.of([]), [], reference) is None


class TestOverhangingReads:
    """A column past the contig end has no reference base and is never
    evidence, however deep. (One PileupColumn per position used to skip
    such columns while shallow and raise IndexError from
    ``ReferenceGenome.fetch`` once ``mismatch_min_depth`` reads
    overhung.)"""

    def test_five_overhanging_reads_keep_their_in_contig_evidence(
            self, reference):
        # Every base wrong, 47 of them over the contig and 3 past it.
        window = reference.fetch("1", 4_953, 5_000)
        wrong = "".join("A" if c != "A" else "C" for c in window) + "AAA"
        overhanging = [make_read(f"o{i}", 4_953, wrong, "50M")
                       for i in range(5)]
        inside = [make_read(f"i{i}", 4_953, wrong[:47], "47M")
                  for i in range(5)]
        targets = identify_targets(overhanging, reference)
        assert targets == identify_targets(inside, reference)
        assert [(t.start, t.end) for t in targets] == [(4_703, 5_000)]
        # The same overhang over bases that all match is no evidence:
        # nothing inside the contig disagrees with the reference.
        matching = [make_read(f"m{i}", 4_953, window + "AAA", "50M")
                    for i in range(5)]
        assert identify_targets(matching, reference) == []


    def test_a_read_placed_far_past_the_contig_costs_nothing(
            self, reference):
        """Work follows reads and evidence, not coordinates: nothing
        is sized by the position a stray read claims."""
        indel = make_read("a", 1_000, "A" * 50, "20M2D30M")
        stray = make_read("far", 10**12, "A" * 50, "50M")
        assert (identify_targets([indel, stray], reference)
                == identify_targets([indel], reference))


class TestFrontHalfScaling:
    """Counts, not seconds: the work ``build_sites`` does per read and
    per position, on the golden 12 kb / 18x sample."""

    @pytest.fixture(scope="class")
    def golden(self):
        import json
        from pathlib import Path

        path = Path(__file__).parent / "golden" / "front_half.json"
        return json.loads(path.read_text())["single_contig"]

    @pytest.fixture(scope="class")
    def sample(self, golden):
        from repro.genomics.simulate import SimulationProfile, simulate_sample

        params = golden["params"]
        return simulate_sample(
            {params["contig"]: params["length"]},
            profile=SimulationProfile(coverage=params["coverage"],
                                      indel_rate=params["indel_rate"]),
            seed=params["seed"],
        )

    def test_membership_sees_each_read_at_most_twice(self, sample,
                                                     monkeypatch):
        """A read's start and its end each land in at most one of the
        disjoint targets, so the site builder is handed at most
        2 x mapped reads over a whole call -- not targets x reads. It is
        called only for targets where some candidate carries an INDEL:
        exactly those at which a site can be built."""
        import repro.realign.realigner as realigner
        from repro.realign.realigner import IndelRealigner

        handed = []
        build_site_once = realigner.build_site

        def counting(target, batch, anchored, *args):
            handed.append(len(anchored))
            return build_site_once(target, batch, anchored, *args)

        monkeypatch.setattr(realigner, "build_site", counting)
        targets, windows = IndelRealigner(sample.reference).build_sites(
            sample.reads)
        mapped = sum(read.is_mapped for read in sample.reads)
        assert windows and len(windows) <= len(handed) <= len(targets)
        assert sum(handed) <= 2 * mapped

    def test_targets_need_no_pileup_column(self, sample, golden,
                                           monkeypatch):
        import repro.align.pileup as pileup_module

        def refuse(*_args, **_kwargs):
            raise AssertionError("a PileupColumn was built")

        monkeypatch.setattr(pileup_module, "PileupColumn", refuse)
        targets = identify_targets(sample.reads, sample.reference)
        assert [[t.chrom, t.start, t.end] for t in targets] == \
            golden["targets"]

    def test_read_end_walks_the_cigar_once(self):
        class CountingElements(tuple):
            walks = 0

            def __iter__(self):
                type(self).walks += 1
                return super().__iter__()

        cigar = Cigar(CountingElements(Cigar.parse("20M2D30M").elements))
        read = Read("a", "1", 100, "A" * 50, np.full(50, 30, np.uint8),
                    cigar)
        CountingElements.walks = 0
        assert read.end == 152
        first = CountingElements.walks
        assert first >= 1
        assert read.end == 152 and read.anchored_in(150, 160)
        assert CountingElements.walks == first
