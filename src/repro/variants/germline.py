"""A Bayesian diploid germline genotyper.

The paper contrasts its somatic target with germline calling ("newly
released GATK4 uses a different pipeline that does not use INDEL
realignment, but is only suitable for germline (non-cancer) variant
calling"). This module provides the germline side of that contrast: a
per-site diploid genotyper with Phred-scaled genotype likelihoods, so
the library covers both calling regimes and the somatic caller's
low-allele-fraction advantage can be demonstrated against it.

Model: at a pileup column with reference allele R and alternate A, each
genotype G in {RR, RA, AA} assigns each observed base an error-aware
probability; the genotype posterior combines the likelihoods with a
population prior on heterozygosity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.align.pileup import PileupColumn, pileup
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome


class Genotype(str, Enum):
    HOM_REF = "0/0"
    HET = "0/1"
    HOM_ALT = "1/1"


@dataclass(frozen=True)
class GermlineCall:
    """One genotyped site."""

    chrom: str
    pos: int
    ref: str
    alt: str
    genotype: Genotype
    genotype_quality: float  # Phred-scaled confidence in the genotype
    depth: int

    @property
    def is_variant(self) -> bool:
        return self.genotype is not Genotype.HOM_REF


@dataclass(frozen=True)
class GenotyperConfig:
    heterozygosity: float = 1e-3  # human SNP prior
    min_depth: int = 6
    min_genotype_quality: float = 20.0

    def __post_init__(self) -> None:
        if not 0 < self.heterozygosity < 0.5:
            raise ValueError("heterozygosity must be in (0, 0.5)")
        if self.min_depth <= 0:
            raise ValueError("min_depth must be positive")


def _allele_log_likelihoods(
    column: PileupColumn, ref_base: str, alt_base: str
) -> Dict[Genotype, float]:
    """log10 P(observed bases | genotype) under per-base error rates."""
    logs = {g: 0.0 for g in Genotype}
    for base, qual in zip(column.bases, column.quals):
        error = 10.0 ** (-qual / 10.0)
        p_ref = (1 - error) if base == ref_base else error / 3.0
        p_alt = (1 - error) if base == alt_base else error / 3.0
        logs[Genotype.HOM_REF] += math.log10(max(p_ref, 1e-300))
        logs[Genotype.HOM_ALT] += math.log10(max(p_alt, 1e-300))
        logs[Genotype.HET] += math.log10(max(0.5 * (p_ref + p_alt), 1e-300))
    return logs


class GermlineGenotyper:
    """Diploid genotyping over pileup columns."""

    def __init__(self, reference: ReferenceGenome,
                 config: Optional[GenotyperConfig] = None):
        self.reference = reference
        self.config = config or GenotyperConfig()

    def _priors(self) -> Dict[Genotype, float]:
        theta = self.config.heterozygosity
        return {
            Genotype.HOM_REF: 1.0 - 1.5 * theta,
            Genotype.HET: theta,
            Genotype.HOM_ALT: theta / 2.0,
        }

    def genotype_column(self, column: PileupColumn, ref_base: str
                        ) -> Optional[GermlineCall]:
        """Genotype one column; None below the depth floor or with no
        alternate evidence."""
        if column.depth < self.config.min_depth:
            return None
        counts = column.base_counts()
        alternates = [(count, base) for base, count in counts.items()
                      if base != ref_base and base != "N"]
        if not alternates:
            return None
        _count, alt_base = max(alternates)
        logs = _allele_log_likelihoods(column, ref_base, alt_base)
        priors = self._priors()
        posts = {
            g: logs[g] + math.log10(priors[g]) for g in Genotype
        }
        best = max(posts, key=lambda g: posts[g])
        others = [posts[g] for g in Genotype if g is not best]
        # Phred-scaled distance to the runner-up genotype.
        quality = 10.0 * (posts[best] - max(others))
        if best is Genotype.HOM_REF:
            return None
        if quality < self.config.min_genotype_quality:
            return None
        return GermlineCall(
            chrom=column.chrom, pos=column.pos,
            ref=ref_base, alt=alt_base,
            genotype=best, genotype_quality=quality,
            depth=column.depth,
        )

    def call(self, reads: Sequence[Read]) -> List[GermlineCall]:
        """Genotype every covered column; sorted by coordinate."""
        columns = pileup(reads)
        calls: List[GermlineCall] = []
        for (chrom, pos), column in columns.items():
            ref_base = self.reference.fetch(chrom, pos, pos + 1)
            result = self.genotype_column(column, ref_base)
            if result is not None:
                calls.append(result)
        return sorted(calls, key=lambda c: (c.chrom, c.pos))
