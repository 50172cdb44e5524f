"""Figure 9 (left): per-chromosome speedup over GATK3.

Regenerates the paper's headline result -- IR ACC at 66.7x-115.4x over
8-thread GATK3 (gmean 81.3x) across chromosomes 1-22, with the
IRAcc-TaskP and IRAcc-TaskP-Async design points on the representative
subset. The run is ``conftest.figure9_outcome``, shared with
``bench_figure9_cost.py``.
"""

import pytest

pytestmark = pytest.mark.paper


def test_figure9_speedup(figure9_outcome):
    outcome = figure9_outcome
    lo, hi = outcome.speedup_range
    # Shape assertions: who wins, by roughly what factor.
    assert outcome.gmean_speedup > 50
    assert lo > 40
    assert hi < 160
    taskp = outcome.design_gmean("IRAcc-TaskP")
    async_ = outcome.design_gmean("IRAcc-TaskP-Async")
    assert 0.5 < taskp < 3.0  # paper: 0.7-1.3x
    assert async_ > 2 * taskp  # paper: ~6.2x gain
