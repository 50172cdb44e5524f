"""Unit tests for the roofline model."""

import numpy as np
import pytest

from repro.perf.roofline import RooflineModel, summarize
from repro.workloads.generator import BENCH_PROFILE, REAL_PROFILE, synthesize_site


class TestRoofline:
    def test_compute_roof(self):
        model = RooflineModel()
        assert model.compute_roof == 32 * 32 * 125e6
        # Ridge: 1.28e11 / 1.6e10 = 8 comparisons per byte.
        assert model.ridge_intensity() == pytest.approx(8.0)

    def test_low_intensity_is_memory_bound(self):
        model = RooflineModel()
        point = model.place("streaming", comparisons=1e9, dram_bytes=1e9)
        assert not point.compute_bound
        assert point.achievable_rate == pytest.approx(1.6e10)

    def test_ir_sites_are_compute_bound(self):
        """The paper's claim: IR is compute-bound on this hardware."""
        model = RooflineModel()
        rng = np.random.default_rng(2)
        points = [
            model.place_site(synthesize_site(rng, profile))
            for profile in (BENCH_PROFILE, REAL_PROFILE)
            for _ in range(4)
        ]
        result = summarize(points)
        assert result["compute_bound_fraction"] == 1.0
        assert result["min_intensity"] > model.ridge_intensity()

    def test_validation(self):
        model = RooflineModel()
        with pytest.raises(ValueError):
            model.place("bad", comparisons=0, dram_bytes=10)
        with pytest.raises(ValueError):
            model.memory_bound_rate(0)

    def test_summarize_empty(self):
        assert summarize([])["compute_bound_fraction"] == 0.0
