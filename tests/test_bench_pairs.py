"""scripts/bench_pairs.py's verdict per metric, on fixed runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def pairs_of(name, a_runs, b_runs):
    return [{"a": {name: x}, "b": {name: y}} for x, y in zip(a_runs, b_runs)]


@pytest.mark.parametrize("better, a_runs, b_runs, within, unresolved", [
    # Tight parent runs: a 10 % loss is within a 25 % bound, a 30 % loss not.
    ("higher", [100, 101, 99, 100, 100], [90, 91, 89, 90, 90], True, False),
    ("higher", [100, 101, 99, 100, 100], [70, 71, 69, 70, 70], False, False),
    ("lower", [10, 10, 10, 10], [12, 12, 12, 12], True, False),
    ("lower", [10, 10, 10, 10], [13, 13, 13, 13], False, False),
    # The parent's quartiles 50-150 span more than the bound around its
    # median 100: a change inside that spread is unresolved...
    ("higher", [50, 50, 100, 150, 150], [100, 100, 100, 100, 100], True, True),
    # ...unless every change run beats every parent run.
    ("higher", [50, 50, 100, 150, 150], [151, 152, 153, 154, 155], True, False),
    ("lower", [50, 50, 100, 150, 150], [40, 41, 42, 43, 44], True, False),
])
def test_judges_each_metric_against_its_bound(compare, better, a_runs, b_runs,
                                              within, unresolved):
    metric = {"name": "m", "better": better, "bound": 0.25}
    summary = compare(pairs_of("m", a_runs, b_runs), [metric])["m"]
    assert summary["bound"] == 0.25
    assert (summary["within_bound"], summary["unresolved"]) == (within, unresolved)


def test_counts_pairs_in_the_metric_direction(compare):
    metric = {"name": "t", "better": "lower", "bound": 0.2}
    summary = compare(pairs_of("t", [10, 10, 10], [9, 11, 10]), [metric])["t"]
    assert (summary["b_better_pairs"], summary["b_worse_pairs"]) == (1, 1)
    assert summary["a_q1_median_q3"] == [10, 10, 10]
    assert summary["median_change_pct"] == 0.0
