"""The arithmetic of the BENCH files that ``tools/bench_pairs.py`` writes.

Every gain claim is read from ``summary`` and ``compare``: a side's median
and inclusive quartiles, the change/parent ratio of the medians, the
parent's interquartile range and the pairs the change wins.  The script
imports only the standard library, so it is loaded here by file path.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair(parent: dict, change: dict) -> dict:
    """One pair of runs as ``perfbench`` returns them: metric name to value."""
    return {side: {"metrics": {name: {"value": v} for name, v in values.items()}}
            for side, values in (("parent", parent), ("change", change))}


def test_summary_is_the_median_and_inclusive_quartiles(bench_pairs):
    assert bench_pairs.summary([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [1.0, 2.0, 3.0, 4.0]}
    assert bench_pairs.summary([1.0, 5.0, 2.0, 4.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}


def test_summary_of_one_run_has_that_run_as_every_quartile(bench_pairs):
    assert bench_pairs.summary([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "runs": [0.25]}


def test_compare_gives_the_ratio_the_parent_iqr_and_the_pair_wins(bench_pairs):
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 2.5, 4.0]  # pair 2 is a tie
    pairs = [pair({"op_s": a, "setup_s": 1.0}, {"op_s": b}) for a, b in zip(parent, change)]
    out = bench_pairs.compare(pairs)
    assert list(out) == ["op_s"]  # setup_s is missing on the change side
    op = out["op_s"]
    assert op["parent"] == bench_pairs.summary(parent)
    assert op["change"] == bench_pairs.summary(change)
    assert op["change_over_parent"] == round(2.5 / 3.0, 4)
    assert op["parent_iqr"] == 2.0
    assert op["change_lower_in_pairs"] == "3 of 5"
    # The tie counts for neither side: with the sides swapped, 1 of 5 pairs.
    swapped = bench_pairs.compare([pair({"op_s": b}, {"op_s": a}) for a, b in zip(parent, change)])
    assert swapped["op_s"]["change_lower_in_pairs"] == "1 of 5"
