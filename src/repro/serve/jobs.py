"""Region jobs: how a read set becomes independent serving requests.

The service realigns *sites*; a client holds a *SAM file*. The bridge
is :func:`partition_jobs`, the one place the region cut rule lives:
per-contig buckets, cut within a contig wherever coverage leaves a
quiet zone wider than :data:`REGION_GAP` bases. Realigning each job's
reads in isolation then produces exactly the targets, sites and
placements the whole-file batch path produces for those reads, because
nothing the realigner builds can reach across such a zone:

- nothing spans contigs -- evidence accumulates, targets form and reads
  anchor per contig;
- evidence loci (INDEL CIGAR elements, mismatch-cluster columns) lie
  inside read spans, so loci on opposite sides of a cut are more than
  ``REGION_GAP`` apart and never share a cluster (clusters merge within
  ``TargetCreatorConfig.merge_distance``, 100), and a mismatch column's
  depth counts reads of one side only;
- a target pads its cluster by ``flank`` (250) and takes the reads whose
  start or end lands inside it, so it anchors no read from the far
  side, and the two sides' padded targets neither overlap nor come
  within ``merge_distance`` of each other:
  ``REGION_GAP > 2 * flank + merge_distance``;
- a consensus window holds reference bases only and ends within
  ``max_consensus_length // 2`` (1024) of its anchored reads or of its
  target's centre, so a realigned read stays on its own side and the
  zone is still a cut afterwards:
  ``REGION_GAP > flank + max_consensus_length // 2``.

Both bounds are for the default ``TargetCreatorConfig()`` and
``PAPER_LIMITS`` -- the only configuration a served job runs under --
and ``tests/test_serve.py::TestPartitionJobs`` fails if a default
drifts past them.

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

#: Minimum coverage gap (bases) at which a contig is cut into
#: independent jobs; the module docstring states what it must exceed.
REGION_GAP = 4096


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
) -> List[RegionJob]:
    """Partition reads into independent region jobs.

    Every input index appears in exactly one job. Contigs are bucketed
    first, in reference declaration order, then unknown contigs by
    name; within a contig, reads are scanned in coordinate order and
    cut where the next read starts more than :data:`REGION_GAP` bases
    past the furthest end seen so far -- the running maximum, not the
    previous read's end, because a long earlier read can span past many
    short successors. Unmapped reads form one final job (no
    coordinates, no cross-read structure, and the realigner passes them
    through untouched).
    """
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
            if read.pos > frontier + REGION_GAP:
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


__all__ = ["REGION_GAP", "RegionJob", "apply_site_results", "partition_jobs"]
