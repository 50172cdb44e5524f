"""The statistics of ``benchmarks/ab.py``, on fixed samples."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_summary_is_median_inclusive_quartiles_and_range():
    assert ab.summary([5, 1, 3, 2, 4]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "min": 1.0, "max": 5.0}
    assert ab.summary([1, 2, 3, 4]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "min": 1.0, "max": 4.0}
    assert ab.summary([7]) == {
        "median": 7.0, "q1": 7.0, "q3": 7.0, "min": 7.0, "max": 7.0}


def test_lower_in_counts_strictly_lower_pairs():
    assert ab.lower_in([3, 3, 3, 3], [2, 3, 4, 1]) == 2
    with pytest.raises(ValueError):
        ab.lower_in([1, 2], [1])


def test_table_rows():
    text = ab.table({"peak_rss_mb": ([44.5, 44.7, 44.6], [39.6, 39.7, 44.8]),
                     "wall_s": ([0.2, 0.2], [0.2, 0.2])})
    header, rule, rss, wall = text.splitlines()
    assert header.startswith("| metric | parent median")
    assert rule.count("|") == header.count("|")
    assert rss == ("| peak_rss_mb | 44.6 | 44.55–44.65 | 44.5–44.7 | 39.7 "
                   "| 39.65–42.25 | 39.6–44.8 | -11.0% | 2 / 3 |")
    assert wall.endswith("| +0.0% | 0 / 2 |")


def test_the_harness_check_compares_e2e_files_only(tmp_path):
    for side in ("a", "b"):
        e2e = tmp_path / side / "benchmarks" / "e2e"
        (e2e / "out").mkdir(parents=True)
        (e2e / "run.py").write_text("judge\n")
        (e2e / "out" / "result.json").write_text(side)
        (tmp_path / side / "src.py").write_text(side)
    assert ab.same_harness(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "benchmarks" / "e2e" / "run.py").write_text("other\n")
    assert not ab.same_harness(tmp_path / "a", tmp_path / "b")
