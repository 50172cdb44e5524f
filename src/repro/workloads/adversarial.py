"""Adversarial read corruption: hostile inputs for the realigner.

The clean simulator (:mod:`repro.genomics.simulate`) models the inputs
INDEL realignment was designed for. Real sequencing runs also contain
the inputs it was *not* designed for, and a sound prefilter/realigner
must not be destabilised by them. Modelled after hivwholeseq's
decontamination workflow (reads from the wrong sample showing up in a
patient's alignment) and standard Illumina failure modes:

- **contaminant reads** -- reads drawn from a different genome entirely
  (wrong sample) but mapped onto this sample's contigs with plausible
  coordinates and low mapping quality;
- **chimeric reads** -- the 5' half from the read's true locus, the 3'
  half from a different contig (or the contaminant genome when the
  reference has a single contig): a library-prep artefact;
- **low-quality tails** -- the read's 3' tail drops to a near-floor
  Phred score and its bases are partially scrambled;
- **adapter read-through** -- the fragment was shorter than the read
  length, so the 3' end sequences into the adapter.

Corruption is applied *in place* over a clean
:class:`~repro.genomics.simulate.SimulatedSample` with a dedicated
seeded RNG, so the same clean sample plus the same seed always yields
byte-identical hostile reads, and every corrupted read keeps its name
(tests can diff clean vs. corrupted read-by-read). Injected contaminant
reads get ``truth_placements`` equal to their injected placement: the
correct realignment outcome for a contaminant is *not to move it onto a
consensus it does not belong to*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.genomics.cigar import Cigar
from repro.genomics.quality import clamp_phred
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sequence import CALLED_BASES
from repro.genomics.simulate import (
    SimulatedSample,
    SimulationProfile,
    TruthPlacement,
    simulate_sample,
)

#: Illumina TruSeq adapter prefix -- the sequence a read-through 3' end
#: observes.
TRUSEQ_ADAPTER = "AGATCGGAAGAGCACACGTC"


@dataclass(frozen=True)
class AdversarialProfile:
    """Knobs of the corruption schedule (all rates are per-read)."""

    contamination_rate: float = 0.05
    chimera_rate: float = 0.03
    low_quality_tail_rate: float = 0.08
    adapter_rate: float = 0.04
    tail_fraction: float = 0.3  # fraction of the read in the bad tail
    tail_quality: int = 4
    tail_scramble: float = 0.4  # fraction of tail bases scrambled
    adapter: str = TRUSEQ_ADAPTER
    contaminant_genome_length: int = 5_000
    contaminant_mapq: Tuple[int, int] = (10, 25)

    def __post_init__(self) -> None:
        for name in ("contamination_rate", "chimera_rate",
                     "low_quality_tail_rate", "adapter_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in (0, 1]")
        if not self.adapter:
            raise ValueError("adapter must be non-empty")


@dataclass(frozen=True)
class AdversarialSample:
    """A corrupted sample plus the labels of what was done to it.

    ``labels`` maps read name to the tuple of corruption kinds applied
    (``"contaminant"``, ``"chimera"``, ``"low_quality_tail"``,
    ``"adapter"``); clean reads are absent. ``counts`` aggregates the
    same labels for reporting.
    """

    sample: SimulatedSample
    labels: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)


def _scramble_tail(read: Read, profile: AdversarialProfile,
                   rng: np.random.Generator) -> Read:
    """Degrade the 3' tail: floor qualities, scramble some bases."""
    length = len(read)
    tail = max(1, int(round(length * profile.tail_fraction)))
    start = length - tail
    quals = read.quals.copy()
    quals[start:] = clamp_phred(
        np.full(tail, profile.tail_quality, dtype=np.int64)
    )
    bases = list(read.seq)
    for index in range(start, length):
        if rng.random() < profile.tail_scramble:
            original = bases[index]
            substitute = original
            while substitute == original:
                substitute = CALLED_BASES[int(rng.integers(0, 4))]
            bases[index] = substitute
    return replace(read, seq="".join(bases), quals=quals)


def _adapter_read_through(read: Read, profile: AdversarialProfile) -> Read:
    """Overwrite the 3' end with the adapter sequence."""
    adapter = profile.adapter[: len(read)]
    seq = read.seq[: len(read) - len(adapter)] + adapter
    return replace(read, seq=seq)


def _chimeric(read: Read, reference: ReferenceGenome,
              contaminant: ReferenceGenome,
              rng: np.random.Generator) -> Read:
    """Replace the 3' half with sequence from somewhere it isn't."""
    length = len(read)
    half = length // 2
    if half == 0:
        return read
    others = [c for c in reference if c.name != read.chrom]
    donor = others[int(rng.integers(0, len(others)))] if others else (
        next(iter(contaminant))
    )
    usable = max(len(donor) - half, 1)
    offset = int(rng.integers(0, usable))
    foreign = donor.sequence[offset : offset + half]
    seq = read.seq[: length - len(foreign)] + foreign
    return replace(read, seq=seq)


def _contaminant_reads(
    sample: SimulatedSample,
    contaminant: ReferenceGenome,
    profile: AdversarialProfile,
    sim_profile_read_length: int,
    rng: np.random.Generator,
) -> List[Read]:
    """Reads from the wrong sample, mapped onto this sample's contigs."""
    reads: List[Read] = []
    donor = next(iter(contaminant))
    serial = 0
    for contig in sample.reference:
        local = [r for r in sample.reads if r.chrom == contig.name]
        count = int(round(len(local) * profile.contamination_rate))
        read_length = min(sim_profile_read_length, len(donor) - 1,
                          len(contig) - 1)
        if read_length <= 0:
            continue
        for _ in range(count):
            src = int(rng.integers(0, len(donor) - read_length))
            pos = int(rng.integers(0, len(contig) - read_length))
            seq = donor.sequence[src : src + read_length]
            quals = clamp_phred(
                np.full(read_length, 30, dtype=np.int64)
                + rng.integers(-4, 5, size=read_length)
            )
            mapq = int(rng.integers(*profile.contaminant_mapq))
            reads.append(Read(
                name=f"contam{serial:06d}",
                chrom=contig.name,
                pos=pos,
                seq=seq,
                quals=quals,
                cigar=Cigar.matched(read_length),
                mapq=mapq,
                is_reverse=bool(rng.random() < 0.5),
            ))
            serial += 1
    return reads


def corrupt_sample(
    sample: SimulatedSample,
    profile: Optional[AdversarialProfile] = None,
    seed: int = 0,
    read_length: Optional[int] = None,
) -> AdversarialSample:
    """Apply the adversarial schedule to a clean sample.

    Deterministic in ``(sample, profile, seed)``. Each pre-existing read
    receives at most one corruption kind (drawn in a fixed priority:
    chimera, then adapter, then low-quality tail) so labels stay
    unambiguous; contaminant reads are appended after the originals.
    """
    profile = profile or AdversarialProfile()
    rng = np.random.default_rng(seed)
    contaminant = ReferenceGenome.random(
        {"contaminant": profile.contaminant_genome_length}, rng
    )
    labels: Dict[str, Tuple[str, ...]] = {}
    counts: Dict[str, int] = {}
    corrupted: List[Read] = []
    for read in sample.reads:
        draw = rng.random()
        if draw < profile.chimera_rate:
            kind = "chimera"
            read = _chimeric(read, sample.reference, contaminant, rng)
        elif draw < profile.chimera_rate + profile.adapter_rate:
            kind = "adapter"
            read = _adapter_read_through(read, profile)
        elif draw < (profile.chimera_rate + profile.adapter_rate
                     + profile.low_quality_tail_rate):
            kind = "low_quality_tail"
            read = _scramble_tail(read, profile, rng)
        else:
            kind = None
        if kind is not None:
            labels[read.name] = (kind,)
            counts[kind] = counts.get(kind, 0) + 1
        corrupted.append(read)
    typical = read_length or (len(sample.reads[0]) if sample.reads else 0)
    injected = _contaminant_reads(sample, contaminant, profile, typical, rng)
    placements = dict(sample.truth_placements)
    for read in injected:
        labels[read.name] = ("contaminant",)
        counts["contaminant"] = counts.get("contaminant", 0) + 1
        placements[read.name] = TruthPlacement(pos=read.pos,
                                               cigar=str(read.cigar))
    corrupted.extend(injected)
    hostile = SimulatedSample(
        reads=corrupted,
        truth_variants=list(sample.truth_variants),
        reference=sample.reference,
        truth_placements=placements,
    )
    return AdversarialSample(sample=hostile, labels=labels, counts=counts)


def adversarial_sample(
    contig_lengths,
    sim_profile: Optional[SimulationProfile] = None,
    adv_profile: Optional[AdversarialProfile] = None,
    seed: int = 0,
) -> AdversarialSample:
    """One-call convenience: clean simulation + adversarial corruption."""
    clean = simulate_sample(contig_lengths, profile=sim_profile, seed=seed)
    profile = sim_profile or SimulationProfile()
    return corrupt_sample(clean, adv_profile, seed=seed + 1,
                          read_length=profile.read_length)
