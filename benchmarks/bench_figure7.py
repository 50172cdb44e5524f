"""Figure 7: synchronous vs asynchronous scheduling on the toy workload."""

import pytest

from repro.experiments import figure7

pytestmark = pytest.mark.paper


def test_figure7_scheduling(once):
    outcome = once(figure7.main)
    assert 6.0 <= outcome.t3_over_t1 <= 10.0  # paper: "about 8 times"
    assert outcome.async_speedup > 1.3
    assert outcome.async_.utilization > outcome.sync.utilization
