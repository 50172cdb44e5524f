"""Primary-alignment substrate.

The paper's pipeline 1 ("primary alignment or read mapping") uses BWA-MEM:
SMEM generation, suffix-array lookup, and Smith-Waterman seed extension
(Figure 2 names exactly these stages). This subpackage implements the same
seed-and-extend structure so the reproduction owns its whole pipeline:

- :mod:`repro.align.smith_waterman` -- the O(mn) local-alignment DP that
  prior accelerators target (the paper's motivation contrasts it with IR).
- :mod:`repro.align.suffix_array` -- exact-match seed lookup.
- :mod:`repro.align.seed_extend` -- a BWA-MEM-style aligner built from the
  two kernels above.
- :mod:`repro.align.pileup` -- per-locus read pileups, used by the variant
  caller and by IR target identification.
"""
