"""Post-call somatic filters.

Position-based somatic callers in the Mutect1 family apply hard filters
after candidate generation; the paper's accuracy motivation ("somatic
variant calls must contain as few errors as possible") lives or dies on
them. Implemented filters:

- ``min_depth`` / ``min_alt_reads`` / ``min_quality`` hard floors;
- ``max_allele_fraction_for_somatic``: germline-looking calls (AF ~ 0.5
  or ~ 1.0) can be excluded in tumor-only mode;
- ``strand_bias``: alt support confined to one strand is an artifact
  signature;
- ``clustered_events``: more than N calls inside one small window is
  the signature of a residual misalignment (exactly what unrealigned
  INDEL reads produce), not of independent mutations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.variants.caller import VariantCall


@dataclass(frozen=True)
class FilterConfig:
    min_depth: int = 8
    min_alt_reads: int = 3
    min_quality: float = 50.0
    max_allele_fraction_for_somatic: Optional[float] = None
    cluster_window: int = 20
    cluster_max_calls: int = 3

    def __post_init__(self) -> None:
        if self.min_depth <= 0 or self.min_alt_reads <= 0:
            raise ValueError("depth floors must be positive")
        if self.cluster_window <= 0 or self.cluster_max_calls <= 0:
            raise ValueError("cluster parameters must be positive")


@dataclass
class FilterReport:
    """Which calls survived, and why the others did not."""

    passed: List[VariantCall] = field(default_factory=list)
    rejected: List[Tuple[VariantCall, str]] = field(default_factory=list)

    def rejections_by_reason(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for _call, reason in self.rejected:
            counts[reason] = counts.get(reason, 0) + 1
        return counts


def _clustered(calls: Sequence[VariantCall], config: FilterConfig
               ) -> set:
    """Indices of calls inside over-dense windows."""
    doomed = set()
    ordered = sorted(range(len(calls)),
                     key=lambda i: (calls[i].chrom, calls[i].pos))
    window: List[int] = []
    for index in ordered:
        call = calls[index]
        window = [
            j for j in window
            if calls[j].chrom == call.chrom
            and call.pos - calls[j].pos <= config.cluster_window
        ]
        window.append(index)
        if len(window) > config.cluster_max_calls:
            doomed.update(window)
    return doomed


def apply_filters(
    calls: Sequence[VariantCall],
    config: FilterConfig = FilterConfig(),
) -> FilterReport:
    """Run every filter; returns survivors plus per-call rejection reasons."""
    report = FilterReport()
    clustered = _clustered(calls, config)
    for index, call in enumerate(calls):
        if call.depth < config.min_depth:
            report.rejected.append((call, "low_depth"))
        elif call.alt_count < config.min_alt_reads:
            report.rejected.append((call, "low_alt_support"))
        elif call.quality < config.min_quality:
            report.rejected.append((call, "low_quality"))
        elif (config.max_allele_fraction_for_somatic is not None
              and call.allele_fraction
              > config.max_allele_fraction_for_somatic):
            report.rejected.append((call, "germline_fraction"))
        elif index in clustered:
            report.rejected.append((call, "clustered_events"))
        else:
            report.passed.append(call)
    return report
