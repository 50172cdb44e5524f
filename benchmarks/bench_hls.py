"""Section V-B: the SDAccel HLS build (paper: only 1.3x-3.1x over GATK3).

The run is ``conftest.comparisons_outcome``, shared with
``bench_adam.py``.
"""

import pytest

pytestmark = pytest.mark.paper


def test_hls_comparison(comparisons_outcome):
    outcome = comparisons_outcome
    lo, hi = outcome.hls_range
    # The HLS build helps, but an order of magnitude less than IR ACC.
    assert 0.8 < lo <= hi < 8.0
    assert hi < outcome.figure9.gmean_speedup / 5
