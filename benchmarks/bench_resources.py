"""Sections III-IV: FPGA resources, peak throughput, and DMA share."""

import pytest

from repro.experiments import microarch
from repro.hw.resources import max_units, utilization

pytestmark = pytest.mark.paper


def test_resources_and_throughput(once):
    outcome = once(microarch.run, num_sites=48, replication=16)
    report = utilization(32)
    assert abs(report.bram_utilization - 0.8762) < 0.002  # paper: 87.62%
    assert abs(report.clb_utilization - 0.3253) < 0.001  # paper: 32.53%
    assert max_units() == 32  # paper: "up to 32 IR units"
    assert outcome.peak_comparisons_per_second == 4e9  # paper: "4 billion"
    assert outcome.dma_fraction < 0.05  # paper: negligible (~0.01%)
