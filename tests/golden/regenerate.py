"""Regenerate the golden regression files in this directory.

The goldens pin the realigner's *exact* observable output -- final SAM
coordinates and per-site WHD grids -- so that any behavioural drift in
the kernel, the consensus selector, or the realigner plumbing fails
tests loudly instead of slipping through as a "small numeric change".

Run deliberately, from the repo root, ONLY when an intentional
behaviour change has been reviewed:

    PYTHONPATH=src python tests/golden/regenerate.py

and commit the regenerated JSON together with the change that caused
it, explaining the drift in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: Keep generation parameters in one place: tests import these so the
#: recomputation always matches what regenerate.py wrote.
REALIGN_PARAMS = {
    "contig": "chr22",
    "length": 12_000,
    "coverage": 18.0,
    "indel_rate": 1.5e-3,
    "seed": 7,
}

#: The front half's second input: deep, several contigs with
#: numerically overlapping coordinates.
FRONT_HALF_PANEL_PARAMS = {
    "contigs": 4,
    "length": 1_500,
    "coverage": 60.0,
    "indel_rate": 3e-3,
    "seed": 11,
}

SITE_SEED = 2019
SITE_COMPLEXITIES = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def realigned_sam_golden() -> dict:
    """Exact post-realignment (name, pos, cigar) for every read."""
    from repro.genomics.simulate import SimulationProfile, simulate_sample
    from repro.realign.realigner import IndelRealigner

    params = REALIGN_PARAMS
    profile = SimulationProfile(
        coverage=params["coverage"], indel_rate=params["indel_rate"],
    )
    sample = simulate_sample(
        {params["contig"]: params["length"]},
        profile=profile, seed=params["seed"],
    )
    updated, report = IndelRealigner(sample.reference).realign(sample.reads)
    return {
        "params": params,
        "targets_identified": report.targets_identified,
        "sites_built": report.sites_built,
        "reads_realigned": report.reads_realigned,
        "reads": [
            {
                "name": read.name,
                "pos": read.pos,
                "cigar": str(read.cigar) if read.cigar is not None else None,
            }
            for read in updated
        ],
    }


def front_half_golden() -> dict:
    """Every decision of ``build_sites``, before any kernel runs.

    The end-to-end goldens see the front half only through the reads
    that moved; this pins what it decided: every target interval and,
    per consensus window, the window start, the consensus strings
    (as sha256), the ordered read membership and the INDEL each
    alternate consensus was built from.
    """
    import hashlib

    from repro.genomics.simulate import SimulationProfile, simulate_sample
    from repro.realign.realigner import IndelRealigner

    single, panel = REALIGN_PARAMS, FRONT_HALF_PANEL_PARAMS
    inputs = {
        "single_contig": (
            single,
            {single["contig"]: single["length"]},
        ),
        "deep_panel": (
            panel,
            {f"chr{i + 1}": panel["length"]
             for i in range(panel["contigs"])},
        ),
    }
    golden = {}
    for label, (params, contigs) in inputs.items():
        sample = simulate_sample(
            contigs,
            profile=SimulationProfile(coverage=params["coverage"],
                                      indel_rate=params["indel_rate"]),
            seed=params["seed"],
        )
        targets, windows = IndelRealigner(sample.reference).build_sites(
            sample.reads
        )
        golden[label] = {
            "params": params,
            "targets": [[t.chrom, t.start, t.end] for t in targets],
            "windows": [
                {
                    "chrom": window.site.chrom,
                    "start": window.site.start,
                    "consensuses_sha256": [
                        hashlib.sha256(c.encode()).hexdigest()
                        for c in window.site.consensuses
                    ],
                    "reads": [read.name for read in window.reads],
                    "indels": [
                        None if indel is None else
                        [indel.ref_pos, indel.op.value, indel.length,
                         indel.inserted]
                        for indel in window.indels
                    ],
                }
                for window in windows
            ],
        }
    return golden


def site_results_golden() -> dict:
    """Exact SiteResult grids for a spread of synthetic sites."""
    import numpy as np

    from repro.realign.whd import realign_site
    from repro.workloads.generator import BENCH_PROFILE, synthesize_site

    rng = np.random.default_rng(SITE_SEED)
    entries = []
    for index, complexity in enumerate(SITE_COMPLEXITIES):
        site = synthesize_site(rng, BENCH_PROFILE, complexity=complexity)
        result = realign_site(site, vectorized=True)
        entries.append({
            "site": index,
            "complexity": complexity,
            "num_consensuses": int(result.min_whd.shape[0]),
            "num_reads": int(result.min_whd.shape[1]),
            "best_cons": int(result.best_cons),
            "scores": result.scores.tolist(),
            "min_whd": result.min_whd.tolist(),
            "min_whd_idx": result.min_whd_idx.tolist(),
            "realign": [bool(x) for x in result.realign],
            "new_pos": result.new_pos.tolist(),
        })
    return {"seed": SITE_SEED, "sites": entries}


def evaluation_golden(scenario: str) -> dict:
    """The full :class:`EvaluationReport` for one accuracy scenario.

    Pins realignment *outcomes* -- mismatch totals before/after,
    truth concordance, truth-INDEL precision/recall, per-site deltas --
    at the scenario's default seed. Score-identical across kernels,
    engines, worker counts, and fault schedules by construction, so a
    drift here means the realigner's behaviour changed, not its
    scheduling.
    """
    from repro.evaluate import run_scenario

    return run_scenario(scenario).to_dict()


def main() -> None:
    targets = {
        "realigned_sam.json": realigned_sam_golden(),
        "site_results.json": site_results_golden(),
        "front_half.json": front_half_golden(),
        "evaluation_toy.json": evaluation_golden("toy"),
        "evaluation_cohort.json": evaluation_golden("cohort"),
        "evaluation_adversarial.json": evaluation_golden("adversarial"),
    }
    for name, payload in targets.items():
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
