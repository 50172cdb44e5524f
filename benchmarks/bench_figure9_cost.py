"""Figure 9 (right): dollars to run INDEL realignment on Ch1-22.

Paper bars: GATK3 $28, ADAM $14.5, IR ACC $0.90 -- 32x / 17x cost
efficiency. The cost extrapolation uses the measured gmean speedup over
the full-scale census anchor (42.1 h of GATK3 at $0.665/hr). The run is
``conftest.figure9_outcome``, shared with ``bench_figure9_speedup.py``.
"""

from repro.perf.cost import cost_efficiency


def test_figure9_cost(figure9_outcome):
    costs = figure9_outcome.costs
    print()
    for name, report in costs.items():
        print(f"{name:8s} {report.instance.name:12s} "
              f"{report.hours:8.2f} h  ${report.dollars:.2f}")
    assert abs(costs["GATK3"].dollars - 28.0) < 0.5
    assert abs(costs["ADAM"].dollars - 14.5) < 0.5
    assert costs["IR ACC"].dollars < 1.5  # paper: $0.90
    assert cost_efficiency(costs["GATK3"], costs["IR ACC"]) > 18
    assert cost_efficiency(costs["ADAM"], costs["IR ACC"]) > 9
