"""Smoke test of the e2e benchmark (``pytest benchmarks`` collects it).

Runs the driver at ``--scale smoke`` and checks what a later reader of
its numbers relies on: the names are BENCHMARK.json's, nothing fails,
exact counts repeat, another seed is another input, a wrong oracle is
caught, and a probe that raises costs its own metric only. Smoke times
are never compared with anything.
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = {w["name"] for w in CONTRACT["workloads"]}
END_TO_END = {m["name"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"] for m in CONTRACT["per_layer"]}

#: Counts that depend on the inputs and the code only, never on timing.
EXACT = [
    "genomics.samlite.reads", "genomics.samlite.bytes_in",
    "genomics.samlite.bytes_out", "align.pileup.columns",
    "realign.targets.count", "realign.sites.count", "realign.sites.cells",
    "realign.reads_realigned", "realign.reads_moved",
    "realign.sites_per_target", "engine.kernel.chosen.native",
    "engine.kernel.chosen.bitpack", "engine.kernel.chosen.fft",
    "engine.kernel.chosen.vector", "engine.kernel.chosen.scalar",
    "core.modelled_ms", "core.pruned_share",
]


def smoke(seed: int, *extra) -> tuple:
    """One driver run at smoke scale: (exit code, result file). With no
    seconds to fill, each workload runs its fewest operations (2, or 20
    requests), so every count repeats."""
    code = run.main(["--scale", "smoke", "--seconds", "0",
                     "--seed", str(seed), *extra])
    with open(run.OUT_DIR / f"result-{seed}.json") as handle:
        return code, json.load(handle)


def exact_counts(record: dict) -> dict:
    return {name: record["per_layer"][name]["value"] for name in EXACT}


@pytest.fixture(scope="module")
def first():
    code, result = smoke(2019, "--trace")
    assert code == 0
    return result


def test_names_are_the_contracts(first):
    assert set(first["workloads"]) == WORKLOADS
    for record in first["workloads"].values():
        assert set(record["end_to_end"]) == END_TO_END
        assert set(record["per_layer"]) == PER_LAYER
    for name in WORKLOADS | END_TO_END | PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_nothing_fails_and_every_probe_answers(first):
    for record in first["workloads"].values():
        assert record["failed"] == 0
        assert record["per_layer"]["failed_share"]["value"] == 0
        assert all(m["value"] > 0 for m in record["end_to_end"].values())
        missing = {name: m.get("reason")
                   for name, m in record["per_layer"].items()
                   if m["value"] is None}
        assert not missing
    environment = first["environment"]
    assert environment["seed"] == 2019 and environment["nproc"] >= 1
    assert not any(name.startswith("REPRO_")
                   for name in environment["set_env"])


def test_exact_counts_repeat_and_seeds_differ(first):
    _, again = smoke(2019, "--trace")
    _, other = smoke(7)
    for name, record in first["workloads"].items():
        sha = record["harness"]["input_sha256"]
        assert again["workloads"][name]["harness"]["input_sha256"] == sha
        assert other["workloads"][name]["harness"]["input_sha256"] != sha
        assert exact_counts(again["workloads"][name]) == exact_counts(record)


def test_a_wrong_oracle_is_caught(monkeypatch):
    call_worker = run.call_worker

    def corrupting(phase, spec, env):
        result = call_worker(phase, spec, env)
        if phase == "prep":
            oracle = result["oracle"]
            result["oracle"] = ("0" * 64 if isinstance(oracle, str)
                                else ["0" * 64] * len(oracle))
        return result

    monkeypatch.setattr(run, "call_worker", corrupting)
    code, result = smoke(2019, "--trace")
    assert code == 1
    for record in result["workloads"].values():
        assert record["failed"] > 0
        assert record["per_layer"]["failed_share"]["value"] > 0


def test_a_probe_that_raises_costs_only_its_metric(monkeypatch):
    import repro.align.pileup
    import repro.realign.targets  # noqa: F401 - binds the real pileup

    def broken(*_args, **_kwargs):
        raise RuntimeError("pileup is broken")

    call_worker = run.call_worker

    def trace_in_process(phase, spec, env):
        # The monkeypatch lives in this process, so the traced pass
        # must run here; every other phase stays a fresh interpreter.
        if phase == "trace":
            return worker.trace(spec)
        return call_worker(phase, spec, env)

    monkeypatch.setattr(repro.align.pileup, "pileup", broken)
    monkeypatch.setattr(run, "call_worker", trace_in_process)
    code, result = smoke(2019, "--trace", "--workloads", "wgs_60kb")
    assert code == 0
    record = result["workloads"]["wgs_60kb"]
    for name in ("align.pileup.busy_s", "align.pileup.columns"):
        assert record["per_layer"][name]["value"] is None
        assert "pileup is broken" in record["per_layer"][name]["reason"]
    assert record["per_layer"]["realign.build_sites_s"]["value"] > 0
    assert set(record["end_to_end"]) == END_TO_END
    line = json.loads(run.contract_line(record, trace=True))
    assert line["correct"] and set(line["metrics"]) == PER_LAYER
