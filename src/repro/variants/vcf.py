"""VCF-lite serialisation of variant calls.

Enough of VCF 4.2 to render this library's calls (CHROM, POS, REF,
ALT, QUAL plus DP/AC in INFO) readably by standard tools.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.genomics.reference import ReferenceGenome
from repro.variants.caller import VariantCall


def _header_lines(reference: Optional[ReferenceGenome]) -> List[str]:
    lines = [
        "##fileformat=VCFv4.2",
        "##source=repro-indel-realigner",
        '##INFO=<ID=DP,Number=1,Type=Integer,Description="Read depth">',
        '##INFO=<ID=AC,Number=1,Type=Integer,Description="Alt read count">',
    ]
    if reference is not None:
        for contig in reference:
            lines.append(f"##contig=<ID={contig.name},length={len(contig)}>")
    lines.append("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO")
    return lines


def format_vcf(
    calls: Iterable[VariantCall],
    reference: Optional[ReferenceGenome] = None,
) -> str:
    """Render calls as a VCF string (1-based POS, per the spec)."""
    lines = _header_lines(reference)
    for call in calls:
        info = f"DP={call.depth};AC={call.alt_count}"
        lines.append(
            "\t".join([
                call.chrom, str(call.pos + 1), ".", call.ref, call.alt,
                f"{call.quality:.0f}", "PASS", info,
            ])
        )
    return "\n".join(lines) + "\n"
