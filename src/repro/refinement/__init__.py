"""The alignment refinement pipeline (paper Figure 1, pipeline 2).

"We then apply several alignment refinement steps to correct errors and
biases in the reads, before identifying the sequence variants": sort,
duplicate removal, INDEL realignment (the accelerated stage), and base
quality score recalibration. The pipeline driver runs them in order and
records per-stage work so Figure 2/3-style breakdowns can be produced
from real executions, not just the analytic model.
"""
