"""Unit tests for somatic call filters and the roofline model."""

import numpy as np
import pytest

from repro.perf.roofline import RooflineModel, RooflinePoint, summarize
from repro.variants.caller import VariantCall
from repro.variants.filters import FilterConfig, apply_filters
from repro.workloads.generator import BENCH_PROFILE, REAL_PROFILE, synthesize_site


def call(pos=100, depth=30, alt=10, quality=90.0, chrom="1", ref="A",
         alt_allele="T"):
    return VariantCall(chrom, pos, ref, alt_allele, quality, depth, alt)


class TestFilters:
    def test_passes_clean_call(self):
        report = apply_filters([call()])
        assert len(report.passed) == 1

    def test_depth_and_support_floors(self):
        report = apply_filters([call(depth=3), call(alt=1), call(quality=5)])
        assert report.passed == []
        reasons = report.rejections_by_reason()
        assert reasons == {"low_depth": 1, "low_alt_support": 1,
                           "low_quality": 1}

    def test_germline_fraction_filter(self):
        config = FilterConfig(max_allele_fraction_for_somatic=0.4)
        report = apply_filters([call(alt=25, depth=30)], config)
        assert report.rejections_by_reason() == {"germline_fraction": 1}
        # Disabled by default.
        assert apply_filters([call(alt=25, depth=30)]).passed

    def test_clustered_events_rejected(self):
        calls = [call(pos=100 + i) for i in range(6)]
        report = apply_filters(calls)
        assert report.rejections_by_reason() == {"clustered_events": 6}

    def test_sparse_calls_not_clustered(self):
        calls = [call(pos=100), call(pos=400), call(pos=900)]
        assert len(apply_filters(calls).passed) == 3

    def test_cluster_respects_chromosomes(self):
        calls = [call(pos=100, chrom=str(c)) for c in range(1, 7)]
        assert len(apply_filters(calls).passed) == 6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(min_depth=0)
        with pytest.raises(ValueError):
            FilterConfig(cluster_window=0)


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
