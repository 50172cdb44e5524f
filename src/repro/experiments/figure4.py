"""Figure 4: the paper's worked INDEL-realignment example.

"An INDEL realignment example with 3 consensuses and 2 reads. Consensus
1 was picked as the best consensus, and only Read 0 was updated because
the best consensus's Read 1 did not have a better (i.e. smaller)
min_whd than the REF."

Every intermediate number in the figure is pinned: the per-offset WHDs
of the two worked-out pairs, the full min_whd grid, the consensus
scores (30 and 35), the picked consensus, and the realignment decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.experiments.reporting import banner, format_table
from repro.realign.site import RealignmentSite
from repro.realign.whd import (
    SiteResult,
    calc_whd,
    min_whd_grid,
    select_and_realign,
)

#: The figure's inputs.
CONSENSUSES = ("CCTTAGA", "ACCTGAA", "TCTGCCT")
READS = ("TGAA", "CCTC")
QUALS = (
    np.array([10, 20, 45, 10], dtype=np.uint8),
    np.array([10, 60, 30, 20], dtype=np.uint8),
)
TARGET_START = 10_000  # illustrative; the figure uses position 20/45 marks

#: Expected values straight from the figure. The scores are the
#: pseudo-code's |delta-vs-REF| values the figure walks through
#: ("REF vs. cons1 |30 - 0| + |20 - 20| = 30 ...").
EXPECTED_WHD_REF_READ0 = [85, 75, 30, 65]  # k = 0..3
EXPECTED_WHD_REF_READ1 = [20, 80, 120, 120]
EXPECTED_MIN_WHD = [[30, 20], [0, 20], [55, 30]]
EXPECTED_SCORES = [0, 30, 35]
EXPECTED_BEST = 1
EXPECTED_REALIGN = [True, False]


@dataclass
class Figure4Result:
    site: RealignmentSite
    result: SiteResult  # run with the figure's absdiff scoring
    similarity_result: SiteResult  # the prose/GATK3 scoring semantics
    whd_ref_read0: List[int]
    whd_ref_read1: List[int]

    @property
    def matches_paper(self) -> bool:
        return (
            self.whd_ref_read0 == EXPECTED_WHD_REF_READ0
            and self.whd_ref_read1 == EXPECTED_WHD_REF_READ1
            and self.result.min_whd.tolist() == EXPECTED_MIN_WHD
            and self.result.scores.tolist() == EXPECTED_SCORES
            and self.result.best_cons == EXPECTED_BEST
            and self.result.realign.tolist() == EXPECTED_REALIGN
        )

    @property
    def scoring_methods_agree(self) -> bool:
        """Both Algorithm 2 semantics pick the same consensus here
        (the figure's example is too small to separate them)."""
        return self.result.same_outputs(self.similarity_result)


def build_site() -> RealignmentSite:
    return RealignmentSite(
        chrom="22", start=TARGET_START,
        consensuses=CONSENSUSES, reads=READS, quals=QUALS,
    )


def run() -> Figure4Result:
    site = build_site()
    grids = min_whd_grid(site)
    result = select_and_realign(site, *grids, scoring="absdiff")
    similarity = select_and_realign(site, *grids, scoring="similarity")
    ref = CONSENSUSES[0]
    return Figure4Result(
        site=site,
        result=result,
        similarity_result=similarity,
        whd_ref_read0=[calc_whd(ref, READS[0], QUALS[0], k) for k in range(4)],
        whd_ref_read1=[calc_whd(ref, READS[1], QUALS[1], k) for k in range(4)],
    )


def main() -> Figure4Result:
    outcome = run()
    print(banner("Figure 4: worked INDEL realignment example"))
    rows = []
    for k in range(4):
        rows.append([
            k, outcome.whd_ref_read0[k], EXPECTED_WHD_REF_READ0[k],
            outcome.whd_ref_read1[k], EXPECTED_WHD_REF_READ1[k],
        ])
    print(format_table(
        ["k", "whd(REF,r0)", "paper", "whd(REF,r1)", "paper"], rows
    ))
    print()
    print(format_table(
        ["consensus", "score", "paper score"],
        [[i, int(outcome.result.scores[i]), EXPECTED_SCORES[i]]
         for i in range(3)],
    ))
    print(f"\npicked consensus: {outcome.result.best_cons} "
          f"(paper: {EXPECTED_BEST})")
    print(f"realign decisions: {outcome.result.realign.tolist()} "
          f"(paper: {EXPECTED_REALIGN})")
    print(f"all figure values match: {outcome.matches_paper}")
    print(f"prose (similarity) scoring picks the same consensus: "
          f"{outcome.scoring_methods_agree}")
    return outcome


if __name__ == "__main__":
    main()
