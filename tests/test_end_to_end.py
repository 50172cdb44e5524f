"""End-to-end integration: the simulator's alignments -> refinement -> calls.

Primary alignment is upstream of INDEL realignment (the paper costs it,
``repro.perf.pipelines``); the flow starts from the simulator's own
aligned reads, as ``repro realign`` starts from a SAM file.
"""

import numpy as np
import pytest

from repro.core.system import AcceleratedIRSystem, SystemConfig
from repro.genomics.reference import ReferenceGenome
from repro.genomics.simulate import ReadSimulator, SimulationProfile
from repro.refinement.pipeline import RefinementPipeline
from repro.variants.caller import SomaticCaller
from repro.variants.evaluation import evaluate_calls


@pytest.fixture(scope="module")
def flow():
    rng = np.random.default_rng(33)
    reference = ReferenceGenome.random({"chr20": 2_500}, rng)
    profile = SimulationProfile(
        read_length=80, coverage=20, indel_rate=2e-3, snp_rate=1e-3,
        hotspot_mass=0.0, base_error_rate=0.002,
    )
    sample = ReadSimulator(reference, profile, seed=34).simulate()
    mapped = [read for read in sample.reads if read.is_mapped]
    return reference, sample, mapped


class TestFullFlow:
    def test_refinement_then_calling(self, flow):
        reference, sample, mapped = flow
        refined = RefinementPipeline(
            reference, engine=AcceleratedIRSystem(SystemConfig.iracc()),
        ).run(mapped)
        assert len(refined.reads) == len(mapped)
        post = evaluate_calls(
            SomaticCaller(reference).call(refined.reads),
            sample.truth_variants,
        )
        pre = evaluate_calls(
            SomaticCaller(reference).call(mapped), sample.truth_variants
        )
        # Refinement never hurts, and the pipeline finds most variants.
        assert post.f1 >= pre.f1 - 0.02
        assert post.recall > 0.5
