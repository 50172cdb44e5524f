"""The paper's contribution: the INDEL realignment accelerator system.

- :mod:`repro.core.isa` -- the five RoCC-format accelerator instructions
  of Table I.
- :mod:`repro.core.buffers` -- block-indexed, byte-selected input/output
  buffer models (the unit's BRAM-backed local memories).
- :mod:`repro.core.hdc` -- the Hamming Distance Calculator stage: scalar
  (1 base/cycle) and data-parallel (32 bases/cycle) variants, with
  computation pruning.
- :mod:`repro.core.selector` -- the Consensus Selector stage.
- :mod:`repro.core.accelerator` -- one IR unit (the two stages composed),
  in bit-identical cycle-stepped and vectorized-analytic modes.
- :mod:`repro.core.router` -- the RoCC command router.
- :mod:`repro.core.scheduler` -- synchronous-parallel and
  asynchronous-parallel target scheduling (Figure 7).
- :mod:`repro.core.host` -- the host-side control program model.
- :mod:`repro.core.system` -- the deployed system: a sea of 32 IR units
  on an F1 instance, end to end.
"""
