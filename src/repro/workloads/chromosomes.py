"""Per-chromosome IR target census (the NA12878 substitute).

The paper gives two absolute counts: "the smallest chromosome (Ch21) has
over 48,000 targets while the largest chromosome (Ch2) has over 320,000
targets" (Section III-A). The census interpolates target counts linearly
in GRCh37 contig length through those two anchors; every other
per-chromosome figure in the reproduction (Figure 3 fractions, Figure 9
speedups) derives from this census plus the site-shape profiles.

``complexity`` (drawn U[0.82, 1.24)) is a deterministic per-chromosome scale on mean target
shape (consensus count / read pileup depth). It stands in for the real
genome's per-chromosome variation in repeat content and INDEL density --
the source of the paper's 53-67% Figure 3 spread and 66.7-115.4x
Figure 9 spread -- which a synthetic census cannot derive from first
principles. Values are drawn once from a seeded generator and frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

#: GRCh37 primary-assembly contig lengths, chromosomes 1-22.
GRCH37_LENGTHS: Dict[str, int] = {
    "1": 249_250_621,
    "2": 243_199_373,
    "3": 198_022_430,
    "4": 191_154_276,
    "5": 180_915_260,
    "6": 171_115_067,
    "7": 159_138_663,
    "8": 146_364_022,
    "9": 141_213_431,
    "10": 135_534_747,
    "11": 135_006_516,
    "12": 133_851_895,
    "13": 115_169_878,
    "14": 107_349_540,
    "15": 102_531_392,
    "16": 90_354_753,
    "17": 81_195_210,
    "18": 78_077_248,
    "19": 59_128_983,
    "20": 63_025_520,
    "21": 48_129_895,
    "22": 51_304_566,
}

#: The paper's two census anchors.
ANCHOR_CH21_TARGETS = 48_000
ANCHOR_CH2_TARGETS = 320_000

#: Paper dataset: "763,275,063 total reads" at "60-65x coverage".
NA12878_TOTAL_READS = 763_275_063
NA12878_COVERAGE = 62.5


@dataclass(frozen=True)
class ChromosomeCensus:
    """Workload statistics of one chromosome."""

    name: str
    length_bp: int
    ir_targets: int
    complexity: float  # mean target-shape scale, ~U[0.82, 1.24)

    @property
    def reads(self) -> int:
        """Reads mapped to this chromosome (coverage-proportional)."""
        total_length = sum(GRCH37_LENGTHS.values())
        return int(round(NA12878_TOTAL_READS * self.length_bp / total_length))


def _interpolated_targets(length_bp: int) -> int:
    """Linear-in-length interpolation through the Ch21/Ch2 anchors."""
    len21 = GRCH37_LENGTHS["21"]
    len2 = GRCH37_LENGTHS["2"]
    slope = (ANCHOR_CH2_TARGETS - ANCHOR_CH21_TARGETS) / (len2 - len21)
    intercept = ANCHOR_CH21_TARGETS - slope * len21
    return int(round(slope * length_bp + intercept))


def _complexity(chrom_index: int) -> float:
    """Frozen per-chromosome shape scale (see module docstring)."""
    rng = np.random.default_rng(1_000 + chrom_index)
    return float(0.82 + 0.42 * rng.random())


def _build_census() -> List[ChromosomeCensus]:
    census = []
    for index, (name, length) in enumerate(GRCH37_LENGTHS.items(), start=1):
        census.append(
            ChromosomeCensus(
                name=name,
                length_bp=length,
                ir_targets=_interpolated_targets(length),
                complexity=_complexity(index),
            )
        )
    return census


#: The frozen census for chromosomes 1-22.
CHROMOSOME_CENSUS: List[ChromosomeCensus] = _build_census()

_BY_NAME = {c.name: c for c in CHROMOSOME_CENSUS}


def census_for(name: str) -> ChromosomeCensus:
    """Look up one chromosome's census entry ('1' .. '22')."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no census for chromosome {name!r}") from None
