"""Section III-A: computation pruning eliminates >50% of the work."""

import pytest

from repro.experiments import microarch

pytestmark = pytest.mark.paper


def test_pruning_and_resources(once):
    outcome = once(microarch.main)
    assert outcome.pruned_fraction > 0.50  # paper: "> 50%"
    assert 0.0 < outcome.datapath_pruned_fraction < outcome.pruned_fraction + 0.3
