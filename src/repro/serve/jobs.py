"""Region jobs: how a read set becomes independent serving requests.

The service realigns *sites*; a client holds a *SAM file*. The bridge
is the region decomposition proved exact for the streaming refinement
pipeline (:mod:`repro.refinement.regions`): per-contig buckets, cut
wherever a ``>= 4096``-base coverage gap guarantees no duplicate
group, pileup column, or consensus window can span the cut. Target
identification accumulates evidence per contig and consensus windows
extend at most ``flank + max_consensus_length/2`` (250 + 1024 < 4096)
beyond read-borne evidence, so realigning each region's reads in
isolation produces exactly the targets -- and exactly the realigned
placements -- the whole-file batch path produces for those reads.

Order matters twice and is preserved twice:

- **within a job**, reads keep their original file order (ascending
  input index), because consensus generation and site assembly follow
  read order -- feeding a region's reads in a different relative order
  could legally reorder consensus tuples and flip WHD ties;
- **across jobs**, the client reassembles responses by input index, so
  the final SAM's line order is the input's regardless of response
  order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.genomics.read import Read
from repro.genomics.reference import ReferenceGenome
# The back half a served job shares with the batch realigners.
from repro.realign.realigner import apply_site_results
from repro.refinement.regions import DEFAULT_REGION_GAP


@dataclass(frozen=True)
class RegionJob:
    """One independently-realignable slice of the input read set."""

    job_id: int
    chrom: str  # "*" for the unmapped bucket
    indices: Tuple[int, ...]  # positions in the original read list
    reads: Tuple[Read, ...]  # the same reads, original relative order

    @property
    def num_reads(self) -> int:
        return len(self.reads)


def partition_jobs(
    reads: Sequence[Read],
    reference: Optional[ReferenceGenome] = None,
    region_gap: int = DEFAULT_REGION_GAP,
) -> List[RegionJob]:
    """Partition reads into independent region jobs.

    Every input index appears in exactly one job. Contigs are bucketed
    first (cross-contig structure cannot exist); within a contig, reads
    are scanned in coordinate order and cut where the next read starts
    more than ``region_gap`` bases past the furthest end seen -- the
    running-frontier rule of
    :func:`repro.refinement.regions.split_regions`. Unmapped reads form
    one final job (no coordinates, no cross-read structure, and the
    realigner passes them through untouched).
    """
    if region_gap < 0:
        raise ValueError(f"region_gap must be >= 0, got {region_gap}")
    by_contig: Dict[str, List[int]] = {}
    unmapped: List[int] = []
    for index, read in enumerate(reads):
        if read.is_mapped:
            by_contig.setdefault(read.chrom, []).append(index)
        else:
            unmapped.append(index)
    if reference is not None:
        rank = {name: i for i, name in enumerate(reference.contig_names)}
    else:
        rank = {}
    ordered = sorted(
        by_contig,
        key=lambda chrom: (0, rank[chrom]) if chrom in rank else (1, chrom),
    )
    jobs: List[RegionJob] = []
    for chrom in ordered:
        indices = by_contig[chrom]
        # Coordinate order decides the cuts; ties keep input order so
        # the scan is deterministic for any input permutation.
        scan = sorted(indices, key=lambda i: (reads[i].pos, i))
        current: List[int] = [scan[0]]
        frontier = reads[scan[0]].end
        for index in scan[1:]:
            read = reads[index]
            if read.pos > frontier + region_gap:
                jobs.append(_job(len(jobs), chrom, current, reads))
                current = []
            current.append(index)
            frontier = max(frontier, read.end)
        jobs.append(_job(len(jobs), chrom, current, reads))
    if unmapped:
        jobs.append(_job(len(jobs), "*", unmapped, reads))
    return jobs


def _job(job_id: int, chrom: str, members: List[int],
         reads: Sequence[Read]) -> RegionJob:
    members = sorted(members)  # ascending input index == original order
    return RegionJob(
        job_id=job_id,
        chrom=chrom,
        indices=tuple(members),
        reads=tuple(reads[i] for i in members),
    )


__all__ = ["RegionJob", "apply_site_results", "partition_jobs"]
