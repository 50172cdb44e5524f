"""Appendix Figure 10: target membership and the before/after pileup."""

import pytest

from repro.experiments import appendix

pytestmark = pytest.mark.paper


def test_appendix_figure10(once):
    outcome = once(appendix.main)
    # A target wider than a read anchors every overlapping read.
    assert outcome.anchored_reads == outcome.spanning_reads
    assert outcome.reads_realigned > 0
    # After realignment the pileup view carries no mismatch letters
    # (only matches '.', deletions '*', and the rendered scaffolding).
    data_lines = outcome.after.splitlines()[2:]
    assert all(set(line) <= set(". *,+") for line in data_lines
               if not line.startswith("..."))
