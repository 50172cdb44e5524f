"""Golden-file regression tests: exact realigner output, pinned.

These tests recompute the realigner's observable output and compare it
*exactly* against the JSON goldens in ``tests/golden/``. Any drift --
one read landing one base off, one WHD cell changing -- fails with a
message naming the first divergent record.

If a behaviour change is intentional, regenerate the goldens
deliberately and commit them with the change:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

from regenerate import (  # noqa: E402  (needs the path hack above)
    REALIGN_PARAMS,
    SITE_COMPLEXITIES,
    SITE_SEED,
    evaluation_golden,
    front_half_golden,
    realigned_sam_golden,
    site_results_golden,
)

REGEN_HINT = (
    "If this drift is an intentional behaviour change, regenerate with "
    "`PYTHONPATH=src python tests/golden/regenerate.py` and commit the "
    "new goldens alongside the change."
)


def _load(name: str) -> dict:
    path = GOLDEN_DIR / name
    assert path.exists(), (
        f"golden file {path} is missing -- run tests/golden/regenerate.py"
    )
    return json.loads(path.read_text())


class TestRealignedSamGolden:
    @pytest.fixture(scope="class")
    def recomputed(self):
        return realigned_sam_golden()

    @pytest.fixture(scope="class")
    def golden(self):
        return _load("realigned_sam.json")

    def test_parameters_match_golden(self, recomputed, golden):
        assert recomputed["params"] == golden["params"], (
            "regenerate.py parameters changed without regenerating the "
            f"golden. {REGEN_HINT}"
        )

    def test_report_counts(self, recomputed, golden):
        for key in ("targets_identified", "sites_built", "reads_realigned"):
            assert recomputed[key] == golden[key], (
                f"realigner {key} drifted: golden {golden[key]}, "
                f"got {recomputed[key]}. {REGEN_HINT}"
            )

    def test_every_read_position_and_cigar(self, recomputed, golden):
        assert len(recomputed["reads"]) == len(golden["reads"]), (
            f"read count drifted: golden {len(golden['reads'])}, got "
            f"{len(recomputed['reads'])}. {REGEN_HINT}"
        )
        for index, (got, want) in enumerate(
            zip(recomputed["reads"], golden["reads"])
        ):
            assert got == want, (
                f"read #{index} ({want['name']}) drifted: expected "
                f"pos={want['pos']} cigar={want['cigar']}, got "
                f"pos={got['pos']} cigar={got['cigar']}. {REGEN_HINT}"
            )

    def test_accelerated_path_matches_the_same_golden(self, golden):
        """The FPGA system model must land every read where the golden
        (software) realigner does -- HW/SW equivalence, pinned to disk."""
        from repro.core.system import AcceleratedRealigner, SystemConfig
        from repro.genomics.simulate import SimulationProfile, simulate_sample

        params = golden["params"]
        sample = simulate_sample(
            {params["contig"]: params["length"]},
            profile=SimulationProfile(
                coverage=params["coverage"],
                indel_rate=params["indel_rate"],
            ),
            seed=params["seed"],
        )
        realigner = AcceleratedRealigner(sample.reference,
                                         SystemConfig.iracc())
        updated, _run, _report = realigner.realign(sample.reads)
        for index, (read, want) in enumerate(zip(updated, golden["reads"])):
            got = {
                "name": read.name,
                "pos": read.pos,
                "cigar": str(read.cigar) if read.cigar is not None else None,
            }
            assert got == want, (
                f"accelerated read #{index} ({want['name']}) diverged "
                f"from the golden software output: expected "
                f"pos={want['pos']} cigar={want['cigar']}, got "
                f"pos={got['pos']} cigar={got['cigar']}. {REGEN_HINT}"
            )


class TestEngineMatchesGolden:
    """The execution engine must land every read where the pinned golden
    does -- serial, batched, and multiprocess are one behaviour."""

    @pytest.fixture(scope="class")
    def golden(self):
        return _load("realigned_sam.json")

    @pytest.fixture(scope="class")
    def sample(self, golden):
        from repro.genomics.simulate import SimulationProfile, simulate_sample

        params = golden["params"]
        return simulate_sample(
            {params["contig"]: params["length"]},
            profile=SimulationProfile(
                coverage=params["coverage"],
                indel_rate=params["indel_rate"],
            ),
            seed=params["seed"],
        )

    def _assert_matches(self, updated, golden, label):
        for index, (read, want) in enumerate(zip(updated, golden["reads"])):
            got = {
                "name": read.name,
                "pos": read.pos,
                "cigar": str(read.cigar) if read.cigar is not None else None,
            }
            assert got == want, (
                f"{label} read #{index} ({want['name']}) diverged from "
                f"the golden: expected pos={want['pos']} "
                f"cigar={want['cigar']}, got pos={got['pos']} "
                f"cigar={got['cigar']}. {REGEN_HINT}"
            )

    @pytest.mark.parametrize(
        "label,workers",
        [("engine-batched", 1), ("engine-multiprocess", 3)],
    )
    def test_engine_realigner_matches_golden(self, golden, sample,
                                             label, workers):
        from repro.engine import EngineConfig
        from repro.realign.realigner import IndelRealigner

        realigner = IndelRealigner(
            sample.reference,
            engine=EngineConfig(workers=workers, batch=3),
        )
        updated, _report = realigner.realign(sample.reads)
        self._assert_matches(updated, golden, label)

    @pytest.mark.parametrize("plane", ["barrier", "stream", "shard",
                                       "stream-cache"])
    @pytest.mark.parametrize(
        "kernel", ["auto", "scalar", "vector", "fft", "bitpack", "native"]
    )
    def test_every_kernel_matches_golden_in_every_plane(
        self, golden, sample, kernel, plane
    ):
        """All five kernels (and auto) must land every read where the
        golden does, through the barrier and streaming windows alike --
        the dispatch layer is only allowed to change *when* results
        arrive, never what they are. ``native`` runs here with or
        without a compiled backend: its fallback path is exact too.
        The two cache rows (``shard`` is the barrier engine under the
        name the benchmark binds) realign twice through one
        content-addressed cache: a cold pass (every site computed,
        inserted) and a warm pass (every site served from the cache)
        must both match the golden."""
        from repro.engine import EngineConfig, StreamingEngine
        from repro.realign.realigner import IndelRealigner
        from repro.shard import ShardPlane, SiteResultCache

        config = EngineConfig(workers=2, batch=3, kernel=kernel)
        cache = (SiteResultCache.from_megabytes(64)
                 if plane in ("shard", "stream-cache") else None)
        if plane == "barrier":
            engine = config
        elif plane == "shard":
            engine = ShardPlane(config, shards=2, cache=cache)
        else:
            engine = StreamingEngine(config, cache=cache)
        realigner = IndelRealigner(sample.reference, engine=engine)
        try:
            updated, _report = realigner.realign(sample.reads)
            if cache is not None:
                warm, _report = realigner.realign(sample.reads)
                assert cache.hits > 0, (
                    "the second pass should have served sites from the "
                    "content-addressed cache"
                )
                self._assert_matches(warm, golden, f"{kernel}-{plane}-warm")
        finally:
            if plane != "barrier":
                engine.close()
        self._assert_matches(updated, golden, f"{kernel}-{plane}")

    def test_batched_kernel_reproduces_golden_grids(self):
        """min_whd_grid_batched(prefilter=False) must be cell-identical
        to the grids the scalar kernel wrote into the site golden."""
        from repro.engine import min_whd_grid_batched
        from repro.workloads.generator import BENCH_PROFILE, synthesize_site

        golden = _load("site_results.json")
        rng = np.random.default_rng(golden["seed"])
        for want in golden["sites"]:
            site = synthesize_site(rng, BENCH_PROFILE,
                                   complexity=want["complexity"])
            mw, mi = min_whd_grid_batched(site, prefilter=False)
            assert mw.tolist() == want["min_whd"], (
                f"batched kernel min_whd drifted from golden on site "
                f"{want['site']}. {REGEN_HINT}"
            )
            assert mi.tolist() == want["min_whd_idx"], (
                f"batched kernel min_whd_idx drifted from golden on site "
                f"{want['site']}. {REGEN_HINT}"
            )

    def test_bitpack_kernel_reproduces_golden_grids(self):
        """min_whd_grid_bitpacked must be cell-identical to the grids
        the scalar kernel wrote into the site golden."""
        from repro.engine import min_whd_grid_bitpacked
        from repro.workloads.generator import BENCH_PROFILE, synthesize_site

        golden = _load("site_results.json")
        rng = np.random.default_rng(golden["seed"])
        for want in golden["sites"]:
            site = synthesize_site(rng, BENCH_PROFILE,
                                   complexity=want["complexity"])
            mw, mi = min_whd_grid_bitpacked(site)
            assert mw.tolist() == want["min_whd"], (
                f"bitpack kernel min_whd drifted from golden on site "
                f"{want['site']}. {REGEN_HINT}"
            )
            assert mi.tolist() == want["min_whd_idx"], (
                f"bitpack kernel min_whd_idx drifted from golden on site "
                f"{want['site']}. {REGEN_HINT}"
            )

    def test_prefiltered_engine_reproduces_golden_decisions(self):
        """With the prefilter on, grids may hold sentinels but every
        architecturally visible decision must still match the golden."""
        from repro.engine import realign_site_batched
        from repro.workloads.generator import BENCH_PROFILE, synthesize_site

        golden = _load("site_results.json")
        rng = np.random.default_rng(golden["seed"])
        for want in golden["sites"]:
            site = synthesize_site(rng, BENCH_PROFILE,
                                   complexity=want["complexity"])
            result = realign_site_batched(site)
            assert int(result.best_cons) == want["best_cons"], (
                f"prefiltered engine best_cons drifted on site "
                f"{want['site']}. {REGEN_HINT}"
            )
            assert result.realign.tolist() == want["realign"]
            assert result.new_pos.tolist() == want["new_pos"]


class TestEvaluationGoldens:
    """The accuracy scenarios' EvaluationReports, pinned end to end.

    These recompute the full before/after scorecard -- mismatch totals,
    truth concordance, truth-INDEL precision/recall, per-site deltas,
    cohort trajectories -- and compare every field against the committed
    JSON. Unlike the SAM goldens, a drift here names the *outcome* that
    changed, so an accuracy regression reads as one."""

    SCENARIOS = ("toy", "cohort", "adversarial")

    @pytest.fixture(scope="class", params=SCENARIOS)
    def pair(self, request):
        scenario = request.param
        return (scenario, evaluation_golden(scenario),
                _load(f"evaluation_{scenario}.json"))

    def test_report_matches_golden(self, pair):
        scenario, recomputed, golden = pair
        assert recomputed.keys() == golden.keys(), (
            f"evaluation[{scenario}] report shape drifted: golden keys "
            f"{sorted(golden)}, got {sorted(recomputed)}. {REGEN_HINT}"
        )
        for key in golden:
            assert recomputed[key] == golden[key], (
                f"evaluation[{scenario}].{key} drifted from the golden. "
                f"{REGEN_HINT}"
            )

    def test_golden_itself_proves_realignment_helped(self, pair):
        """The committed artifact must prove the point itself: strictly
        fewer mismatches, no concordance regression, on every scenario."""
        scenario, _recomputed, golden = pair
        totals = golden["totals"]
        assert totals["mismatch_after"] < totals["mismatch_before"], (
            f"evaluation[{scenario}] golden does not show a mismatch "
            f"improvement -- the scenario no longer exercises realignment"
        )
        assert totals["concordance_after"] >= totals["concordance_before"]
        assert totals["reads_moved"] > 0


class TestFrontHalfGolden:
    """What ``build_sites`` decided, pinned before any kernel runs.

    ``front_half.json`` was written by the commit *before* the front
    half went columnar, so it is the old per-position pileup and
    full-scan membership speaking: the SAM goldens only see reads that
    moved, this sees every target, window, member and consensus."""

    @pytest.fixture(scope="class")
    def recomputed(self):
        return front_half_golden()

    @pytest.fixture(scope="class")
    def golden(self):
        return _load("front_half.json")

    @pytest.mark.parametrize("label", ["single_contig", "deep_panel"])
    def test_targets_and_windows(self, recomputed, golden, label):
        got, want = recomputed[label], golden[label]
        assert got["params"] == want["params"], (
            "regenerate.py parameters changed without regenerating the "
            f"golden. {REGEN_HINT}"
        )
        assert got["targets"] == want["targets"], (
            f"front half [{label}]: targets drifted. {REGEN_HINT}"
        )
        assert len(got["windows"]) == len(want["windows"]), (
            f"front half [{label}]: golden built {len(want['windows'])} "
            f"windows, got {len(got['windows'])}. {REGEN_HINT}"
        )
        for index, (g, w) in enumerate(zip(got["windows"], want["windows"])):
            for key in ("chrom", "start", "reads", "indels",
                        "consensuses_sha256"):
                assert g[key] == w[key], (
                    f"front half [{label}]: window #{index} "
                    f"({w['chrom']}:{w['start']}) {key} drifted. "
                    f"{REGEN_HINT}"
                )


class TestSiteResultGolden:
    @pytest.fixture(scope="class")
    def recomputed(self):
        return site_results_golden()

    @pytest.fixture(scope="class")
    def golden(self):
        return _load("site_results.json")

    def test_parameters_match_golden(self, golden):
        assert golden["seed"] == SITE_SEED
        assert [e["complexity"] for e in golden["sites"]] == list(
            SITE_COMPLEXITIES
        )

    def test_every_grid_cell(self, recomputed, golden):
        assert len(recomputed["sites"]) == len(golden["sites"])
        for got, want in zip(recomputed["sites"], golden["sites"]):
            label = (f"site {want['site']} "
                     f"(complexity {want['complexity']})")
            for key in ("num_consensuses", "num_reads", "best_cons"):
                assert got[key] == want[key], (
                    f"{label}: {key} drifted, expected {want[key]}, got "
                    f"{got[key]}. {REGEN_HINT}"
                )
            for key in ("scores", "realign", "new_pos"):
                assert got[key] == want[key], (
                    f"{label}: {key} drifted. expected {want[key]}, got "
                    f"{got[key]}. {REGEN_HINT}"
                )
            for key in ("min_whd", "min_whd_idx"):
                got_grid = np.asarray(got[key])
                want_grid = np.asarray(want[key])
                if not np.array_equal(got_grid, want_grid):
                    bad = np.argwhere(got_grid != want_grid)[0]
                    c, r = int(bad[0]), int(bad[1])
                    pytest.fail(
                        f"{label}: {key}[{c}, {r}] drifted: expected "
                        f"{want_grid[c, r]}, got {got_grid[c, r]}. "
                        f"{REGEN_HINT}"
                    )

    def test_scalar_kernel_reproduces_golden_grids(self, golden):
        """The scalar (hardware-shaped) kernel must hit the same grids
        the vectorized kernel wrote into the golden."""
        from repro.realign.whd import realign_site
        from repro.workloads.generator import BENCH_PROFILE, synthesize_site

        rng = np.random.default_rng(golden["seed"])
        for want in golden["sites"]:
            site = synthesize_site(rng, BENCH_PROFILE,
                                   complexity=want["complexity"])
            result = realign_site(site, vectorized=False)
            assert result.min_whd.tolist() == want["min_whd"], (
                f"scalar kernel min_whd drifted from golden on site "
                f"{want['site']}. {REGEN_HINT}"
            )
            assert int(result.best_cons) == want["best_cons"]
            assert result.new_pos.tolist() == want["new_pos"]
