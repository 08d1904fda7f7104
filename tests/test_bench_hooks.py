"""The benchmark's layer hooks (perfbench/tracing.py) against the package.

A traced benchmark run skips a hook whose attribute is gone and reads
attributes of some results; a refactor that renames either would drop a
layer from the per-layer metrics or crash traced runs.  The tracing module
is loaded as it is and not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bdtw.corpus import named_graph
from bdtw.monotonize import monotonize_pipeline

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Gone since strategy trees take their children from game._replies, and
# since the game's rules read the robber's component from graphs.components
# with no edge view of their own (graphs.part_table is deleted); both are
# listed in the benchmark's own open items.
STALE = {("bdtw.strategy_tree", "part_table"), ("bdtw.game", "part_table")}


@pytest.fixture(scope="module")
def tracing():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_hook_exists(tracing):
    hooks = [(m, a) for m, a, _name in tracing.SPAN_HOOKS] + list(tracing.COUNT_HOOKS)
    missing = [(m, a) for m, a in hooks
               if (m, a) not in STALE and not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_traced_pipeline_reads_real_results(tracing):
    # A fuzzed, verified pipeline calls every hooked layer whose result the
    # tracer reads: solve, fuzz_nonmonotone, build, choose_extensions and
    # apply_step.
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    with tracer.installed():
        r = monotonize_pipeline(named_graph("C4"), 3, 3, fuzz_slack=2, seed=2, verify=True)
    tracer.end_op()
    assert set(tracer.missing) <= {f"{m}.{a}" for m, a in STALE}
    counts = tracer.work_counters()
    assert counts["game.positions"] > 0
    assert counts["strategy_tree.nodes"] == r.strategy_tree.ptd.tree.size
    assert counts["strategy_tree.detours"] == r.fuzz_injected > 0
    assert counts["monotonize.free_edges.sum"] > 0
    assert counts["monotonize.steps"] == counts["monotonize.choose_extensions.calls"] > 0
