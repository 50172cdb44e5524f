"""Section V-B: IR ACC versus ADAM (paper: 30.2x-69.1x, avg 41.4x).

The run is ``conftest.comparisons_outcome``, shared with
``bench_hls.py``.
"""


def test_adam_comparison(comparisons_outcome):
    outcome = comparisons_outcome
    assert 15 < outcome.adam_gmean < 80  # paper avg: 41.4x
    assert all(s > 10 for s in outcome.adam_speedups)
