"""A position-based somatic variant caller (Mutect1-style).

Walks pileup columns and emits SNP calls where the alternate allele's
quality-weighted support clears a log-odds threshold, and INDEL calls
where gapped alignments agree. Deliberately position-based: the paper's
argument is that position-based callers (which depend on INDEL
realignment) remain the somatic standard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.align.pileup import PileupColumn, pileup
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
from repro.genomics.variants import VariantKind


@dataclass(frozen=True)
class VariantCall:
    """One emitted call."""

    chrom: str
    pos: int
    ref: str
    alt: str
    quality: float  # Phred-scaled call confidence
    depth: int
    alt_count: int

    @property
    def kind(self) -> VariantKind:
        if len(self.ref) == len(self.alt) == 1:
            return VariantKind.SNP
        if len(self.alt) > len(self.ref):
            return VariantKind.INSERTION
        return VariantKind.DELETION


@dataclass(frozen=True)
class CallerConfig:
    """Thresholds of the somatic caller."""

    min_depth: int = 4
    min_alt_reads: int = 3
    min_allele_fraction: float = 0.15
    min_quality_sum: int = 60  # summed Phred support for the alt allele
    min_indel_reads: int = 3
    min_indel_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.min_depth <= 0 or self.min_alt_reads <= 0:
            raise ValueError("depth thresholds must be positive")
        if not 0 < self.min_allele_fraction <= 1:
            raise ValueError("min_allele_fraction must be in (0, 1]")


class SomaticCaller:
    """Pileup-walking somatic caller."""

    def __init__(self, reference: ReferenceGenome,
                 config: Optional[CallerConfig] = None):
        self.reference = reference
        self.config = config or CallerConfig()

    def _call_snp(self, column: PileupColumn, ref_base: str
                  ) -> Optional[VariantCall]:
        config = self.config
        counts = column.base_counts()
        quality_sums = column.base_quality_sums()
        candidates = [
            (base, count) for base, count in counts.items()
            if base != ref_base and base != "N"
        ]
        if not candidates:
            return None
        alt, alt_count = max(candidates, key=lambda item: (item[1], item[0]))
        if alt_count < config.min_alt_reads:
            return None
        if alt_count / column.depth < config.min_allele_fraction:
            return None
        support = quality_sums.get(alt, 0)
        if support < config.min_quality_sum:
            return None
        return VariantCall(
            chrom=column.chrom, pos=column.pos, ref=ref_base, alt=alt,
            quality=float(support), depth=column.depth, alt_count=alt_count,
        )

    def _call_indels(self, column: PileupColumn, ref_base: str
                     ) -> List[VariantCall]:
        config = self.config
        calls: List[VariantCall] = []
        if column.depth == 0:
            return calls
        # Insertions: group identical inserted strings.
        by_insert: Dict[str, int] = {}
        for inserted in column.insertions:
            by_insert[inserted] = by_insert.get(inserted, 0) + 1
        for inserted, count in sorted(by_insert.items()):
            if count >= config.min_indel_reads and (
                count / column.depth >= config.min_indel_fraction
            ):
                calls.append(VariantCall(
                    chrom=column.chrom, pos=column.pos,
                    ref=ref_base, alt=ref_base + inserted,
                    quality=30.0 * count, depth=column.depth, alt_count=count,
                ))
        # Deletions: group by length.
        by_length: Dict[int, int] = {}
        for length in column.deletions:
            by_length[length] = by_length.get(length, 0) + 1
        contig_len = self.reference.length(column.chrom)
        for length, count in sorted(by_length.items()):
            if count < config.min_indel_reads:
                continue
            if count / column.depth < config.min_indel_fraction:
                continue
            end = column.pos + 1 + length
            if end > contig_len:
                continue
            ref_allele = self.reference.fetch(column.chrom, column.pos, end)
            calls.append(VariantCall(
                chrom=column.chrom, pos=column.pos,
                ref=ref_allele, alt=ref_base,
                quality=30.0 * count, depth=column.depth, alt_count=count,
            ))
        return calls

    def call(self, reads: Sequence[Read]) -> List[VariantCall]:
        """Call variants over a read set; sorted by coordinate."""
        columns = pileup(reads)
        calls: List[VariantCall] = []
        for (chrom, pos), column in columns.items():
            if column.depth < self.config.min_depth:
                continue
            ref_base = self.reference.fetch(chrom, pos, pos + 1)
            snp = self._call_snp(column, ref_base)
            if snp is not None:
                calls.append(snp)
            calls.extend(self._call_indels(column, ref_base))
        return sorted(calls, key=lambda c: (c.chrom, c.pos, c.alt))
