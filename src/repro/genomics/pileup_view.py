"""ASCII pileup rendering (the paper's Figure 10, and manual review).

The paper notes that IR matters partly because "visualization and manual
inspection of particular cell (re)alignments is desired (most somatic
biochemists prefer manual inspection of cancer cell (re)alignments)".
This module renders a reference window with its reads stacked beneath
it, IGV-style in plain text: matching bases as ``.``/``,`` (forward /
reverse strand), mismatches as the read base, deletions as ``*``,
insertions flagged with ``+``, soft clips in lower case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.genomics.cigar import CigarOp
from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome


@dataclass(frozen=True)
class PileupViewConfig:
    max_rows: int = 30
    show_names: bool = False
    ruler_interval: int = 10


def _read_row(read: Read, start: int, end: int, reference_window: str
              ) -> Optional[str]:
    """Render one read against window ``[start, end)``; None if outside."""
    if not read.is_mapped or read.end <= start or read.pos >= end:
        return None
    width = end - start
    cells = [" "] * width
    match_char = "," if read.is_reverse else "."
    read_offset = 0
    ref_pos = read.pos
    for op, length in read.cigar:
        if op is CigarOp.MATCH:
            for i in range(length):
                column = ref_pos + i - start
                if 0 <= column < width:
                    base = read.seq[read_offset + i]
                    ref_base = reference_window[column]
                    cells[column] = match_char if base == ref_base else base
            read_offset += length
            ref_pos += length
        elif op is CigarOp.DELETION:
            for i in range(length):
                column = ref_pos + i - start
                if 0 <= column < width:
                    cells[column] = "*"
            ref_pos += length
        elif op is CigarOp.INSERTION:
            column = ref_pos - 1 - start
            if 0 <= column < width:
                cells[column] = "+"
            read_offset += length
        elif op is CigarOp.SOFT_CLIP:
            # Clipped bases are unaligned; they occupy no columns.
            read_offset += length
    return "".join(cells)


def render_pileup(
    reads: Sequence[Read],
    reference: ReferenceGenome,
    chrom: str,
    start: int,
    end: int,
    config: PileupViewConfig = PileupViewConfig(),
) -> str:
    """Render the window ``chrom:[start, end)`` with stacked reads."""
    if not 0 <= start < end <= reference.length(chrom):
        raise ValueError(f"bad window {chrom}:{start}-{end}")
    window = reference.fetch(chrom, start, end)
    width = end - start
    ruler = [" "] * width
    for column in range(0, width, config.ruler_interval):
        label = str(start + column)
        for i, char in enumerate(label):
            if column + i < width:
                ruler[column + i] = char
    lines = ["".join(ruler), window]
    rows = 0
    for read in sorted(
        (r for r in reads if r.is_mapped and r.chrom == chrom),
        key=lambda r: r.pos,
    ):
        row = _read_row(read, start, end, window)
        if row is None or not row.strip():
            continue
        if config.show_names:
            row = f"{row}  {read.name}"
        lines.append(row)
        rows += 1
        if rows >= config.max_rows:
            remaining = sum(
                1 for r in reads
                if r.is_mapped and r.chrom == chrom and r.overlaps(start, end)
            ) - rows
            if remaining > 0:
                lines.append(f"... ({remaining} more reads)")
            break
    return "\n".join(lines)
