"""Unit tests for the performance models, cost models, and baselines."""

import numpy as np
import pytest

from repro.baselines.adam import AdamBaseline
from repro.baselines.gatk3 import Gatk3Baseline
from repro.baselines.gpu import (
    GPU_SURVEY,
    required_speedup,
    survey_max_speedup,
)
from repro.baselines.hls import OPENCL_MAX_COMPUTE_UNITS, hls_system_config
from repro.perf.cost import cost_efficiency, cost_of_run, required_gpu_speedup
from repro.perf.instances import F1_2XLARGE, INSTANCE_CATALOG, P3_2XLARGE, R3_2XLARGE
from repro.perf.model import (
    GATK3_WHOLE_GENOME_SECONDS,
    Gatk3PerformanceModel,
    census_unpruned_comparisons,
)
from repro.perf.pipelines import (
    PRIMARY_STAGE_SPLIT,
    REFINEMENT_STAGE_SPLIT,
    average_ir_fraction,
    ir_share_of_total,
    pipeline_fractions,
    refinement_breakdown,
    stage_hours,
)
from repro.workloads.generator import synthesize_site


class TestInstances:
    def test_paper_prices(self):
        assert F1_2XLARGE.price_per_hour == 1.65
        assert R3_2XLARGE.price_per_hour == 0.665
        assert P3_2XLARGE.price_per_hour == 3.06

    def test_table2_configuration(self):
        assert F1_2XLARGE.fpga == "Xilinx Virtex UltraScale+ VU9P"
        assert F1_2XLARGE.fpga_memory_gib == 64.0
        assert R3_2XLARGE.cores == 4 and R3_2XLARGE.threads == 8
        assert set(INSTANCE_CATALOG) == {"f1.2xlarge", "r3.2xlarge",
                                         "p3.2xlarge"}

    def test_cost(self):
        assert R3_2XLARGE.cost(3600) == pytest.approx(0.665)
        with pytest.raises(ValueError):
            R3_2XLARGE.cost(-1)


class TestGatk3Model:
    def test_calibration_reproduces_42_hours(self):
        model = Gatk3PerformanceModel.calibrated()
        total = census_unpruned_comparisons()
        assert model.seconds_for_comparisons(total) == pytest.approx(
            GATK3_WHOLE_GENOME_SECONDS
        )

    def test_whole_genome_costs_28_dollars(self):
        report = cost_of_run("GATK3", R3_2XLARGE, GATK3_WHOLE_GENOME_SECONDS)
        assert report.dollars == pytest.approx(28.0, rel=0.01)

    def test_thread_scaling_saturates_at_8(self):
        model = Gatk3PerformanceModel(comparisons_per_second=1e9)
        t4 = model.seconds_for_comparisons(1e9, threads=4)
        t8 = model.seconds_for_comparisons(1e9, threads=8)
        t16 = model.seconds_for_comparisons(1e9, threads=16)
        assert t4 == pytest.approx(2 * t8)
        assert t16 == t8

    def test_baseline_wraps_model(self):
        baseline = Gatk3Baseline()
        sites = [synthesize_site(np.random.default_rng(1))]
        assert baseline.seconds_for_sites(sites) > 0


class TestAdam:
    def test_relative_speedup_consistent_with_paper_gmeans(self):
        adam = AdamBaseline()
        assert adam.speedup_over_gatk3 == pytest.approx(81.3 / 41.4)

    def test_adam_costs_about_14_50(self):
        adam = AdamBaseline()
        seconds = GATK3_WHOLE_GENOME_SECONDS / adam.speedup_over_gatk3
        assert cost_of_run("ADAM", R3_2XLARGE, seconds).dollars == \
            pytest.approx(14.5, rel=0.02)

    def test_faster_than_gatk3(self):
        adam = AdamBaseline()
        assert adam.seconds_for_comparisons(1e12) < \
            adam.gatk3_model.seconds_for_comparisons(1e12)


class TestHls:
    def test_documented_limitations(self):
        config = hls_system_config()
        assert config.num_units == OPENCL_MAX_COMPUTE_UNITS == 16
        assert config.lanes == 1


class TestGpu:
    def test_required_speedup_is_paper_value(self):
        assert required_speedup(80.0) == pytest.approx(148.36, abs=0.01)
        assert required_gpu_speedup(P3_2XLARGE, F1_2XLARGE, 80.0) == \
            pytest.approx(148.36, abs=0.01)

    def test_survey_far_below_requirement(self):
        assert survey_max_speedup() < required_speedup(80.0) / 5
        assert len(GPU_SURVEY) == 4


class TestCost:
    def test_cost_efficiency(self):
        gatk3 = cost_of_run("GATK3", R3_2XLARGE, 42.1 * 3600)
        iracc = cost_of_run("IR ACC", F1_2XLARGE, 42.1 * 3600 / 80)
        assert cost_efficiency(gatk3, iracc) == pytest.approx(32.3, abs=0.5)


class TestPipelineModel:
    def test_pipeline_fractions(self):
        fractions = pipeline_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        # Paper: primary < 15%, refinement ~ 60%.
        assert fractions["primary_alignment"] < 0.15
        assert fractions["alignment_refinement"] == pytest.approx(0.576,
                                                                  abs=0.01)

    def test_stage_splits_sum_to_one(self):
        assert sum(PRIMARY_STAGE_SPLIT.values()) == pytest.approx(1.0)
        assert sum(REFINEMENT_STAGE_SPLIT.values()) == pytest.approx(1.0)

    def test_smith_waterman_share_of_total(self):
        hours = stage_hours()
        total = 125.0
        sw = hours["primary_alignment"]["seed_extension_smith_waterman"]
        sa = hours["primary_alignment"]["suffix_array_lookup"]
        assert sw / total == pytest.approx(0.05, abs=0.005)
        assert sa / total == pytest.approx(0.015, abs=0.002)

    def test_ir_share_of_total_near_34_percent(self):
        assert ir_share_of_total() == pytest.approx(0.334, abs=0.01)

    def test_figure3_breakdown(self):
        rows = refinement_breakdown()
        assert len(rows) == 22
        assert average_ir_fraction(rows) == pytest.approx(0.58, abs=0.005)
        fractions = [row.ir_fraction for row in rows]
        # Paper range is 53-67%; allow a modestly wider synthetic band.
        assert min(fractions) > 0.40
        assert max(fractions) < 0.72
