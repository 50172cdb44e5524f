"""Quickstart: realign one INDEL site in software and on the simulated FPGA.

Walks the library's core loop end to end in under a minute:

1. build a tiny reference with a known 6-base deletion;
2. simulate a read pileup where half the INDEL-carrying reads were
   misaligned by the primary aligner (gap-free alignments full of
   mismatches -- the error INDEL realignment exists to fix);
3. run the software realigner (the paper's Algorithms 1 + 2);
4. run the same realigner with its kernel on the 32-unit FPGA
   accelerator model and check the outputs are bit-identical, then
   compare modelled runtimes.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.baselines.gatk3 import Gatk3Baseline
from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.genomics.cigar import Cigar
from repro.genomics.read import Read
from repro.genomics.reference import Contig, ReferenceGenome
from repro.genomics.sequence import random_bases
from repro.realign.realigner import IndelRealigner


def build_scenario(seed: int = 7):
    """A 3 kb reference with a 6-base deletion at position 1500."""
    rng = np.random.default_rng(seed)
    ref_seq = random_bases(3_000, rng)
    reference = ReferenceGenome([Contig("demo", ref_seq)])
    donor = ref_seq[:1500] + ref_seq[1506:]  # the sample's true genome

    reads = []
    read_len = 120
    for i, start in enumerate(range(1400, 1500, 6)):
        seq = donor[start : start + read_len]
        quals = np.full(read_len, 32, dtype=np.uint8)
        before_deletion = 1500 - start
        if i % 2 == 0:
            # The aligner got it right: gapped CIGAR.
            cigar = Cigar.parse(f"{before_deletion}M6D{read_len - before_deletion}M")
        else:
            # Misaligned: the INDEL was absorbed into mismatches.
            cigar = Cigar.parse(f"{read_len}M")
        reads.append(Read(f"read{i:02d}", "demo", start, seq, quals, cigar))
    return reference, reads


def main():
    reference, reads = build_scenario()
    misaligned = sum(1 for r in reads if not r.has_indel)
    print(f"pileup: {len(reads)} reads over a 6-base deletion, "
          f"{misaligned} misaligned (gap-free)")

    # --- software INDEL realignment (the GATK3 algorithm) -------------
    realigner = IndelRealigner(reference)
    updated, report = realigner.realign(reads)
    print(f"\nsoftware realigner: {report.targets_identified} target(s), "
          f"{report.sites_built} site(s), {report.reads_realigned} reads "
          f"realigned, {report.unpruned_comparisons:,} base comparisons")
    fixed = sum(
        1 for before, after in zip(reads, updated)
        if not before.has_indel and after.has_indel
    )
    print(f"misaligned reads now carrying the deletion: {fixed}/{misaligned}")

    # --- the same kernel on the accelerated system --------------------
    system = AcceleratedIRSystem(SystemConfig.iracc())
    hw_reads, _ = IndelRealigner(reference, engine=system).realign(reads)
    run = system.last_run
    identical = all(
        a.pos == b.pos and str(a.cigar) == str(b.cigar)
        for a, b in zip(updated, hw_reads)
    )
    print(f"\naccelerator outputs bit-identical to software: {identical}")
    print(f"accelerator time ({run.config.num_units} units, "
          f"{run.config.lanes}-wide, async): {run.total_seconds * 1e6:.1f} us")
    print(f"computation pruning eliminated "
          f"{run.pruned_fraction:.0%} of comparisons")

    # --- modelled software baseline ------------------------------------
    _, sites = realigner.build_sites(reads)
    gatk3 = Gatk3Baseline()
    sw_seconds = gatk3.seconds_for_sites([w.site for w in sites])
    print(f"modelled 8-thread GATK3 time: {sw_seconds * 1e6:.1f} us "
          f"(speedup {sw_seconds / run.total_seconds:.1f}x)")


if __name__ == "__main__":
    main()
