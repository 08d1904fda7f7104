"""Smoke test of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench

Checks the result schema and every metric name in BENCHMARK.json, that
work counters and output digests repeat exactly at a fixed seed, the
layers each workload is predicted to bypass, and that the benchmark
refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 12
SEED = 3


@pytest.fixture(scope="module", autouse=True)
def package():
    assert run.load_package() is None


def metric_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def check_schema(result: dict, kind: str) -> dict[str, float]:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == metric_units(kind)
    json.loads(json.dumps(result))
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_both_modes_report_every_metric_and_agree(workload):
    detail, result = run.benchmark(workload, SEED, 0, False, prefix=TINY)
    values = check_schema(result, "end_to_end")
    assert all(v > 0 for v in values.values())
    traced = [run.benchmark(workload, SEED, 0, True, prefix=TINY) for _ in range(2)]
    for d, r in traced:
        check_schema(r, "per_layer")
        assert d["digest"] == detail["digest"]
    assert traced[0][0]["counters"] == traced[1][0]["counters"]


def per_layer(workload: str) -> dict[str, float]:
    _detail, result = run.benchmark(workload, SEED, 0, True, prefix=TINY)
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_sweep_bypasses_exactification():
    m = per_layer("sweep")
    assert m["trace.exactification_spans"] == 0
    assert m["graphs.part_table.calls"] > 0 and m["graphs.part_table.cop_sets"] > 0


def test_certify_exactifies_without_free_edges():
    m = per_layer("certify")
    assert m["monotonize.steps"] > 0
    assert m["monotonize.free_edges.sum"] == 0
    assert m["pre_tree.validate_ptd.verify_step.calls"] == 0


def test_fuzz_exactifies_with_free_edges():
    m = per_layer("fuzz")
    assert m["monotonize.free_edges.sum"] > 0
    assert m["pre_tree.validate_ptd.verify_step.calls"] > 0


def test_fuzz_ops_stay_within_the_free_edge_cap():
    from workloads import FREE_EDGE_CAP, Fuzz

    assert all(n + m <= FREE_EDGE_CAP for n, _k, m in Fuzz.strata)
    assert all(n + m > FREE_EDGE_CAP for n, _k, m in Fuzz.probe_strata)
    detail, result = run.benchmark("fuzz", SEED, 0, True, prefix=TINY)
    assert result["failed"] == 0
    assert detail["counters"]["monotonize.free_edges.max"] <= FREE_EDGE_CAP
    assert detail["probe"]["ops"] == Fuzz.probe_size


def test_refuses_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(run.ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
