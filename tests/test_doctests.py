"""Run the worked-example doctests as part of tier-1.

The WHD kernel modules carry the paper's Figure 4 example (m=7, n=4,
k=0..3) end to end -- each kernel's grid function, the function that
finishes every site, and the dispatcher -- and the engine and serving
modules carry their own small worked examples. Running them here, in
the tier-1 suite that CI runs (there is no separate doctest step),
keeps the documentation honest: a change that breaks a documented
example fails tier-1.
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

#: The modules whose examples run the Figure 4 site through a kernel.
FIGURE4_MODULES = DOCUMENTED_MODULES[:5]


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
    if module_name in FIGURE4_MODULES:
        sources = [example.source for test in doctest.DocTestFinder()
                   .find(module) for example in test.examples]
        assert any("figure4 import build_site" in source
                   for source in sources), (
            f"{module_name} lost its worked Figure 4 example"
        )
