"""Table II: machine configurations (and the full tables printout)."""

import pytest

from repro.experiments import tables

pytestmark = pytest.mark.paper


def test_table2_machines(once):
    outcome = once(tables.main)
    t2 = tables.run_table2()
    assert t2.f1.price_per_hour == 1.65
    assert t2.r3.price_per_hour == 0.665
    assert t2.f1.fpga_memory_gib == 64.0
