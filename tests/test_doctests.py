"""Run the worked-example doctests as part of tier-1.

The WHD kernel docstrings carry the paper's Figure 4 example (m=7, n=4,
k=0..3) end to end, and the engine modules carry their own small worked
examples. Running them here keeps the documentation honest: if a kernel
change breaks a documented example, tier-1 fails before CI's dedicated
doctest step does.
"""

import doctest
import importlib

import pytest

DOCUMENTED_MODULES = [
    "repro.realign.whd",
    "repro.engine.batch",
    "repro.engine.bitpack",
    "repro.engine.native",
    "repro.engine.autotune",
    "repro.engine.prefilter",
    "repro.engine.parallel",
    "repro.shard.plane",
    "repro.shard.cache",
    "repro.serve.metrics",
    "repro.serve.request",
    "repro.serve.loadgen",
    "repro.workloads.serving",
]


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{module_name}: {results.failed} doctest(s) failed"
    )
    assert results.attempted > 0, (
        f"{module_name} has no doctests -- its worked examples were removed"
    )
