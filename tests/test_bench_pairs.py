"""scripts/bench_pairs.py's verdict per metric, on fixed runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

# A stand-in for perfbench/run.py: it runs no op, and reports one op per
# tenth of the seconds it is given, with the metrics of BENCHMARK.json.
FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
ops = round(10 * float(args["--seconds"]))
names = [m["name"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]]
print(json.dumps({"digest": args["--workload"] + args["--seed"]}))
print(json.dumps({"correct": True, "attempted": ops, "failed": 0,
                  "metrics": {n: {"value": float(ops), "unit": ""} for n in names}}))
"""


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(bench_pairs):
    return bench_pairs.compare


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


def fake_checkouts(tmp_path) -> list[str]:
    """Two checkouts whose perfbench/run.py is FAKE_RUN."""
    sides = []
    for side in "ab":
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(FAKE_RUN)
        (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        sides.append(str(root))
    return sides


@pytest.mark.parametrize("seconds, expected", [([], 8), (["--seconds", "40"], 40)])
def test_records_op_counts_of_runs_of_the_given_length(bench_pairs, tmp_path, capsys,
                                                       seconds, expected):
    sides = fake_checkouts(tmp_path)
    assert bench_pairs.main([*sides, "--workload", "fuzz", "--pairs", "2", *seconds]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["seconds"] == expected
    assert [p["first"] for p in record["pairs"]] == ["a", "b"]
    assert all(p[side]["attempted"] == 10 * expected
               for p in record["pairs"] for side in "ab")
    assert record["same_outputs"] and record["digests"]["a"] == ["fuzz4"]


@pytest.mark.parametrize("seconds, suffix", [([], ""), (["--seconds", "40"], "_40s")])
def test_records_each_workload_under_its_bench_key(bench_pairs, tmp_path, capsys,
                                                   seconds, suffix):
    sides = fake_checkouts(tmp_path)
    argv = [*sides, "--workload", "sweep", "--workload", "fuzz", "--seed", "7",
            "--pairs", "3", *seconds]
    assert bench_pairs.main(argv) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert list(runs) == ["sweep_s7" + suffix, "fuzz_s7" + suffix]
    for workload, record in zip(("sweep", "fuzz"), runs.values()):
        assert (record["workload"], record["seed"]) == (workload, 7)
        assert [p["first"] for p in record["pairs"]] == ["a", "b", "a"]
        assert record["digests"]["b"] == [workload + "7"] and record["correct"]


def test_rejects_a_repeated_workload(bench_pairs, capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["a", "b", "--workload", "fuzz", "--workload", "fuzz"])
    assert "each --workload may be given once" in capsys.readouterr().err


def test_rejects_a_run_length_that_is_not_positive(bench_pairs, capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["a", "b", "--workload", "fuzz", "--seconds", "0"])
    assert "--seconds must be positive" in capsys.readouterr().err
