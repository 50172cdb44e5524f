"""Table I: the five RoCC accelerator instructions."""

import pytest

from repro.experiments import tables

pytestmark = pytest.mark.paper


def test_table1_isa(once):
    outcome = once(tables.run_table1)
    assert outcome.roundtrip_ok
    assert len(outcome.commands) == 5
    assert outcome.commands_for_32_consensuses == 40
