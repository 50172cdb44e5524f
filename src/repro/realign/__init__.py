"""INDEL realignment: the paper's Algorithms 1 and 2 plus their inputs.

- :mod:`repro.realign.site` -- the :class:`RealignmentSite` container (one
  "IR target": a reference window, alternate consensuses, and the reads
  anchored in the window).
- :mod:`repro.realign.whd` -- the weighted-Hamming-distance kernel
  (Algorithm 1) and consensus selection / read realignment (Algorithm 2),
  in both a literal scalar form and a numpy-vectorized form that also
  yields the pruning statistics the accelerator model consumes.
- :mod:`repro.realign.targets` -- RealignerTargetCreator equivalent.
- :mod:`repro.realign.consensus` -- consensus generation from INDELs
  observed in the reads.
- :mod:`repro.realign.realigner` -- the end-to-end software INDEL
  realigner (the GATK3 functional baseline).
"""
