"""Comparison systems the paper evaluates against.

- :mod:`repro.baselines.gatk3` -- the de facto standard software
  baseline (functional: our realigner; timing: the calibrated model).
- :mod:`repro.baselines.adam` -- "the most optimized open-source
  software implementation of the alignment refinement pipeline".
- :mod:`repro.baselines.hls` -- the SDAccel/OpenCL HLS build with its
  16-compute-unit asynchronous-scheduling limit and no data-parallel
  datapath.
- :mod:`repro.baselines.gpu` -- the GPU comparison survey and the
  required-speedup arithmetic (no GPU INDEL realigner exists).
"""
