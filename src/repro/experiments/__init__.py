"""One module per paper table/figure, plus shared reporting helpers.

Every module exposes ``run(...)`` returning a result object and a
``main()`` that prints the paper-versus-measured comparison; the
``benchmarks/`` directory wires each into pytest-benchmark.

====================  =====================================================
module                reproduces
====================  =====================================================
``figure2``           pipeline execution-time breakdown (3 pipelines)
``figure3``           per-chromosome IR share of refinement time
``figure4``           the worked WHD example (3 consensuses, 2 reads)
``figure7``           synchronous vs asynchronous scheduling timelines
``figure9``           per-chromosome speedups + cost bars
``tables``            Table I (the RoCC ISA) and Table II (machines)
``microarch``         pruning rate, BRAM/CLB, peak throughput, DMA share
``comparisons``       ADAM, HLS, and GPU comparison points
``appendix``          Figure 10 (target pileup) and the glossary
====================  =====================================================
"""

from repro.experiments import (
    appendix,
    comparisons,
    figure2,
    figure3,
    figure4,
    figure7,
    figure9,
    microarch,
    tables,
)

__all__ = [
    "appendix",
    "comparisons",
    "figure2",
    "figure3",
    "figure4",
    "figure7",
    "figure9",
    "microarch",
    "tables",
]
