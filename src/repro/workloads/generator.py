"""Synthetic IR-site generator.

Generates :class:`~repro.realign.site.RealignmentSite` objects whose
shape distributions follow the paper's stated regime: "A typical locus
can contain 2-32 consensuses and 10-256 reads", consensuses up to
2048 bp, reads up to 256 bp, with heavy-tailed read pileups (the
"Zipf-like distribution" of Section II-C that defeats GPUs and
synchronous scheduling alike).

Reads are sampled *from* one of the site's consensuses with realistic
base-calling errors, so the generated sites behave like real ones under
the kernel: the winning consensus usually exists, minimum-WHD offsets
are sharp, and computation pruning gets the >50% elimination the paper
reports rather than an artifact of uniform noise.

Two profiles:

- ``REAL_PROFILE`` -- full-scale shape means; used analytically (never
  simulated whole) to calibrate the software baseline against the
  paper's 42-hour GATK3 measurement;
- ``BENCH_PROFILE`` -- reduced shape means for laptop-scale benchmark
  runs; per-chromosome *relative* results are shape-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.genomics.quality import clamp_phred
from repro.realign.site import RealignmentSite, SiteLimits, PAPER_LIMITS
from repro.workloads.chromosomes import ChromosomeCensus

_BASE_CODES = np.frombuffer(b"ACGT", dtype=np.uint8)


@dataclass(frozen=True)
class SiteProfile:
    """Shape distributions for synthetic sites."""

    name: str
    mean_consensuses: float
    mean_reads: float
    read_length_range: Tuple[int, int]
    window_slack_mean: float  # E[m - max read length]
    read_tail_sigma: float = 0.7  # lognormal sigma of the read pileup
    max_indel: int = 12
    base_error_rate: float = 0.01
    quality_plateau: float = 37.0
    limits: SiteLimits = PAPER_LIMITS

    def __post_init__(self) -> None:
        lo, hi = self.read_length_range
        if not 1 <= lo <= hi <= self.limits.max_read_length:
            raise ValueError(f"bad read length range {self.read_length_range}")
        if self.mean_consensuses < 2 or self.mean_reads < 1:
            raise ValueError("profile means too small")


#: Full-scale shapes: means chosen inside the paper's stated ranges so
#: the census-level work total is consistent with the paper's measured
#: GATK3 runtime (see repro.perf.model).
REAL_PROFILE = SiteProfile(
    name="real",
    mean_consensuses=8.0,
    mean_reads=72.0,
    read_length_range=(150, 250),
    window_slack_mean=500.0,
)

#: Bench-scale shapes: ~50x less work per site, same structure but a
#: lighter pileup tail (bench runs schedule ~10^2 sites, not ~10^5, so
#: an uncut lognormal tail would turn single sites into stragglers that
#: no real-scale run exhibits).
BENCH_PROFILE = SiteProfile(
    name="bench",
    mean_consensuses=4.0,
    mean_reads=20.0,
    read_length_range=(72, 120),
    window_slack_mean=200.0,
)


def _random_bases(rng: np.random.Generator, length: int) -> np.ndarray:
    return _BASE_CODES[rng.integers(0, 4, size=length)]


def _mutate(bases: np.ndarray, rng: np.random.Generator, rate: float) -> None:
    flips = np.nonzero(rng.random(bases.size) < rate)[0]
    for index in flips:
        candidates = _BASE_CODES[_BASE_CODES != bases[index]]
        bases[index] = candidates[rng.integers(0, candidates.size)]


def synthesize_site(
    rng: np.random.Generator,
    profile: SiteProfile = BENCH_PROFILE,
    complexity: float = 1.0,
    chrom: str = "22",
    start: int = 0,
) -> RealignmentSite:
    """Generate one synthetic realignment site."""
    limits = profile.limits
    num_cons = int(np.clip(
        2 + rng.poisson(max(profile.mean_consensuses * complexity - 2, 0.1)),
        2, limits.max_consensuses,
    ))
    mu = np.log(max(profile.mean_reads * complexity, 1.0))
    mu -= 0.5 * profile.read_tail_sigma**2  # lognormal mean correction
    num_reads = int(np.clip(
        round(rng.lognormal(mu, profile.read_tail_sigma)), 2, limits.max_reads
    ))
    lo, hi = profile.read_length_range
    read_lengths = rng.integers(lo, hi + 1, size=num_reads)
    n_max = int(read_lengths.max())
    slack = int(rng.exponential(profile.window_slack_mean)) + profile.max_indel + 8
    m = int(min(n_max + slack, limits.max_consensus_length))

    reference = _random_bases(rng, m)
    consensuses: List[np.ndarray] = [reference]
    for _ in range(num_cons - 1):
        size = int(rng.integers(1, profile.max_indel + 1))
        pos = int(rng.integers(1, m - size - 1))
        if rng.random() < 0.5 and m + size <= limits.max_consensus_length:
            inserted = _random_bases(rng, size)
            alt = np.concatenate([reference[:pos], inserted, reference[pos:]])
        else:
            alt = np.concatenate([reference[:pos], reference[pos + size:]])
        if alt.size >= n_max:
            consensuses.append(alt)
    num_cons = len(consensuses)

    # Reads pile up around the site's locus, as real pileups do: one
    # site-level anchor fraction places the pileup along the window.
    # This correlation is what gives *per-target* pruning-driven runtime
    # variance (the paper's Figure 7 observation that same-sized targets
    # differ ~8x): a pileup near offset 0 locks the running minimum in
    # immediately, a pileup near the window's end scans almost unpruned.
    anchor_fraction = rng.random()
    reads: List[str] = []
    quals: List[np.ndarray] = []
    for j in range(num_reads):
        n = int(read_lengths[j])
        source = consensuses[int(rng.integers(0, num_cons))]
        span = source.size - n
        anchor = anchor_fraction * span
        offset = int(np.clip(round(rng.normal(anchor, n / 4)), 0, span))
        bases = source[offset : offset + n].copy()
        _mutate(bases, rng, profile.base_error_rate)
        reads.append(bytes(bases).decode("ascii"))
        quals.append(clamp_phred(
            np.round(rng.normal(profile.quality_plateau, 2.5, size=n))
        ))

    return RealignmentSite(
        chrom=chrom,
        start=start,
        consensuses=tuple(bytes(c).decode("ascii") for c in consensuses),
        reads=tuple(reads),
        quals=tuple(quals),
        limits=limits,
    )


def chromosome_workload(
    census: ChromosomeCensus,
    scale: float,
    profile: SiteProfile = BENCH_PROFILE,
    seed: int = 0,
) -> List[RealignmentSite]:
    """Generate a scaled-down workload for one chromosome.

    ``scale`` is the census scale factor (e.g. 1/8000); at least one
    site is always generated. Sites inherit the chromosome's complexity.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    count = max(1, int(round(census.ir_targets * scale)))
    rng = np.random.default_rng((seed, int(census.name)))
    sites = []
    position = 10_000
    for _ in range(count):
        site = synthesize_site(
            rng, profile, complexity=census.complexity,
            chrom=census.name, start=position,
        )
        sites.append(site)
        position += len(site.reference) + 1_000
    return sites


def expected_comparisons_per_site(
    profile: SiteProfile, complexity: float = 1.0
) -> float:
    """First-order expectation of Algorithm 1's unpruned comparisons.

    ``E[C] * E[R] * E[m - n + 1] * E[n]`` using the profile's means.
    Used only for census-level calibration arithmetic (never in place of
    simulation) -- see :mod:`repro.perf.model`.
    """
    mean_c = min(2 + max(profile.mean_consensuses * complexity - 2, 0.1),
                 profile.limits.max_consensuses)
    mean_r = min(profile.mean_reads * complexity, profile.limits.max_reads)
    lo, hi = profile.read_length_range
    mean_n = (lo + hi) / 2
    mean_m = min(hi + profile.window_slack_mean + profile.max_indel + 8,
                 profile.limits.max_consensus_length)
    offsets = max(mean_m - mean_n + 1, 1.0)
    return mean_c * mean_r * offsets * mean_n
