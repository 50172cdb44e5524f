"""Figure 3: IR share of refinement-pipeline time per chromosome."""

import pytest

from repro.experiments import figure3

pytestmark = pytest.mark.paper


def test_figure3_ir_fraction(once):
    outcome = once(figure3.main)
    assert abs(outcome.average - 0.58) < 0.01  # paper: 58% average
    assert outcome.minimum > 0.40  # paper: 53%
    assert outcome.maximum < 0.72  # paper: 67%
    assert len(outcome.rows) == 22
