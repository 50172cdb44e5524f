"""Figure 2: execution-time breakdown of the three analysis pipelines."""

import pytest

from repro.experiments import figure2

pytestmark = pytest.mark.paper


def test_figure2_breakdown(once):
    outcome = once(figure2.main)
    shares = outcome.pipeline_shares
    assert shares["primary_alignment"] < 0.15  # paper: "less than 15%"
    assert 0.55 < shares["alignment_refinement"] < 0.62  # "roughly 60%"
    assert 0.30 < outcome.ir_total_share < 0.37  # "roughly one third"
    # The executed refinement pipeline agrees on the dominant stage.
    assert outcome.measured_ir_fraction == max(
        outcome.measured.fraction(stage.stage)
        for stage in outcome.measured.stages
    )
