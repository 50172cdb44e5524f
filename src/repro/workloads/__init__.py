"""Workloads: the per-chromosome target census and site generators.

The paper evaluates on chromosomes 1-22 of NA12878 at 60-65x coverage.
Without that dataset, the reproduction uses:

- :mod:`repro.workloads.chromosomes` -- a per-chromosome *census* of IR
  targets anchored to the two counts the paper reports (Ch21 > 48,000
  targets; Ch2 > 320,000) and GRCh37 contig lengths;
- :mod:`repro.workloads.generator` -- a synthetic site generator whose
  shape distributions follow the paper's stated ranges ("a typical locus
  can contain 2-32 consensuses and 10-256 reads"), at full-scale and
  bench-scale profiles;
- :mod:`repro.workloads.toy` -- the 8-target toy workload of Figure 7;
- :mod:`repro.workloads.cohort` -- a longitudinal multi-sample cohort
  with shared target loci and drifting allele-frequency trajectories
  (hivwholeseq-style), for cross-sample determinism and
  trajectory-recovery evaluation;
- :mod:`repro.workloads.adversarial` -- seeded hostile-input corruption
  (contaminant reads from the wrong sample, chimeric reads,
  low-quality tails, adapter read-through) that stresses prefilter
  soundness and realignment stability;
- :mod:`repro.workloads.serving` -- seeded many-tenant request
  schedules (Poisson arrivals, round-robin job assignment) for driving
  the serving plane
  (``repro.serve``, docs/SERVING.md).
"""
