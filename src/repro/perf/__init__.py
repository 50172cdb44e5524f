"""Performance and cost models.

- :mod:`repro.perf.instances` -- the EC2 instance catalog (Table II plus
  prices quoted in Section V).
- :mod:`repro.perf.model` -- calibrated throughput models for the
  software baselines and the census-level work arithmetic.
- :mod:`repro.perf.pipelines` -- the three-pipeline execution-time model
  behind Figures 2 and 3.
- :mod:`repro.perf.cost` -- dollars-to-run arithmetic (Figure 9 right).
"""
