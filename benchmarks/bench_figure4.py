"""Figure 4: the worked WHD example (every number pinned)."""

import pytest

from repro.experiments import figure4

pytestmark = pytest.mark.paper


def test_figure4_worked_example(once):
    outcome = once(figure4.main)
    assert outcome.matches_paper
