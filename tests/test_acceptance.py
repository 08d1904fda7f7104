"""End-to-end acceptance suite.

Each criterion prints one PASS line when it completes; a failed assertion
means the criterion is red.  Everything is integer-exact: there are no
tolerances to tune.  Expensive shared work (the solver sweep over the small
graph corpus and the pipeline runs) is computed once per session.
"""

import itertools
import random

import pytest

from bdtw.corpus import all_graphs, named_graph
from bdtw.game import GameConfig, minimum_placements, solve
from bdtw.graphs import Graph, closure
from bdtw.monotonize import check_branching_depth_bound, monotonize_pipeline
from bdtw.partitions import EdgePartition, check_submodularity_instance
from bdtw.pre_tree import (
    from_tree_decomposition,
    is_exact,
    ptd_depth,
    ptd_width,
    to_tree_decomposition,
)
from bdtw.tree_decomp import (
    RootedTree,
    TreeDecomposition,
    td_depth,
    td_width,
    validate_td,
)
from oracles import edge_partitions, naive_cop_wins

K_RANGE = range(1, 5)
Q_RANGE = range(1, 7)
Q_MAX = max(Q_RANGE)
NAMED_EXTRAS = ("P5", "P6", "C4", "C5", "C6", "K4", "K2,3", "GRID2x3")


@pytest.fixture(scope="module")
def suite_graphs():
    return [(f"g4#{i}", g) for i, g in enumerate(all_graphs(4))] + [
        (name, named_graph(name)) for name in NAMED_EXTRAS
    ]


@pytest.fixture(scope="module")
def solver_sweep(suite_graphs):
    """Minimum placements per (graph, k) for all four game variants."""
    table = {}
    for name, g in suite_graphs:
        gc = closure(g)
        for k in K_RANGE:
            costs = {}
            for host_label, host in (("plain", g), ("closure", gc)):
                for monotone in (False, True):
                    costs[(host_label, monotone)] = minimum_placements(
                        host, k, monotone, Q_MAX
                    )
            table[(name, k)] = costs
    return table


@pytest.fixture(scope="module")
def pipeline_runs(suite_graphs, solver_sweep):
    """Verified pipeline results: every cop-win (graph, k) once without
    fuzzing plus fuzzed reruns (slack 1 and 2) with per-step verification."""
    plain = []
    fuzzed = []
    idx = 0
    for name, g in suite_graphs:
        for k in K_RANGE:
            cost = solver_sweep[(name, k)][("closure", False)]
            if cost is None:
                continue
            result = monotonize_pipeline(g, k, cost, verify=True)
            plain.append((name, g, k, cost, result))
            for slack in (1, 2):
                fz = monotonize_pipeline(
                    g, k, cost, fuzz_slack=slack, seed=idx * 7 + slack, verify=True
                )
                fuzzed.append((name, g, k, cost, fz))
            idx += 1
    return plain, fuzzed


def test_criterion_1_equivalence(suite_graphs, solver_sweep):
    """Monotone and non-monotone games agree on G and its closure across
    the whole corpus and parameter grid."""
    points = 0
    for name, _g in suite_graphs:
        for k in K_RANGE:
            costs = solver_sweep[(name, k)]
            for q in Q_RANGE:
                wins = {key: c is not None and c <= q for key, c in costs.items()}
                assert len(set(wins.values())) == 1, (name, k, q, costs)
                points += 1
    assert points == len(suite_graphs) * len(K_RANGE) * len(Q_RANGE)
    print(f"\nPASS criterion 1: equivalence on {points} grid points, 0 disagreements")


def test_criterion_2_pipeline_soundness(pipeline_runs):
    """Every cop win exactifies into a valid decomposition within bounds;
    fuzzed non-monotone strategies included."""
    plain, fuzzed = pipeline_runs
    for name, g, k, cost, r in plain + fuzzed:
        st = r.strategy_tree
        assert is_exact(r.exact_ptd), (name, k)
        assert ptd_width(r.exact_ptd) <= ptd_width(st.ptd)
        assert ptd_depth(r.exact_ptd) <= ptd_depth(st.ptd)
        assert validate_td(r.td).ok, (name, k)
        assert td_width(r.td) <= k - 1, (name, k)
        bound = r.placements_bound
        assert td_depth(r.td) <= bound, (name, k)
        for q in range(cost, Q_MAX + 1):
            assert td_depth(r.td) <= q + (bound - cost)
    injected = sum(1 for *_rest, r in fuzzed if r.fuzz_injected > 0)
    assert injected >= 200, f"only {injected} genuinely fuzzed runs"
    print(
        f"\nPASS criterion 2: {len(plain)} solver pipelines and {injected} "
        f"fuzzed pipelines produce valid bounded decompositions"
    )


def test_criterion_3_per_step_verification(pipeline_runs):
    """All pipeline runs already executed with verify=True: every step's
    report was empty or the fixture would have raised."""
    plain, fuzzed = pipeline_runs
    steps = sum(r.strategy_tree.ptd.tree.size for *_rest, r in plain + fuzzed)
    assert plain and fuzzed
    print(f"\nPASS criterion 3: per-step checks empty across {steps} construction steps")


def test_criterion_4_submodularity():
    """Exhaustive over every partition pair and admissible block pair on
    all loops-allowed graphs with at most 4 edges on up to 3 vertices and
    loop-free graphs on 4 vertices, plus 10^4 random instances with up to
    8 edges."""
    hosts = []
    for n in (1, 2, 3):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(0, 5):
            for combo in itertools.combinations(pairs, m):
                hosts.append(Graph(n, combo))
    pairs4 = list(itertools.combinations(range(4), 2))
    for m in range(0, 5):
        for combo in itertools.combinations(pairs4, m):
            hosts.append(Graph(4, combo))
    checked = 0
    for g in hosts:
        parts = [EdgePartition(g, bs) for bs in edge_partitions(g)]
        for p, q in itertools.product(parts, repeat=2):
            for xi in range(len(p.blocks)):
                for yi in range(len(q.blocks)):
                    if p.block(xi) | q.block(yi) == g.full_mask:
                        continue
                    assert check_submodularity_instance(p, q, xi, yi), (
                        g.edges, p.blocks, q.blocks, xi, yi,
                    )
                    checked += 1

    rng = random.Random(20240917)
    random_checked = 0
    while random_checked < 10_000:
        n = rng.randint(2, 5)
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        m = rng.randint(1, min(8, len(pairs)))
        g = Graph(n, rng.sample(pairs, m))
        blocks_p = _random_partition(rng, g)
        blocks_q = _random_partition(rng, g)
        p = EdgePartition(g, blocks_p)
        q = EdgePartition(g, blocks_q)
        xi = rng.randrange(len(blocks_p))
        yi = rng.randrange(len(blocks_q))
        if p.block(xi) | q.block(yi) == g.full_mask:
            continue
        assert check_submodularity_instance(p, q, xi, yi)
        random_checked += 1
    print(
        f"\nPASS criterion 4: submodularity on {checked} exhaustive and "
        f"{random_checked} random instances"
    )


def _random_partition(rng, g):
    n_blocks = rng.randint(1, max(1, g.m))
    blocks = [0] * n_blocks
    for e in range(g.m):
        blocks[rng.randrange(n_blocks)] |= 1 << e
    return tuple(blocks)


def test_criterion_5_round_trip(pipeline_runs):
    """Certificates and hand decompositions survive the conversion round
    trip with width and depth not increasing."""
    plain, _fuzzed = pipeline_runs
    cases = [(name, r.td) for name, _g, _k, _cost, r in plain]
    p3 = named_graph("P3")
    cases.append(("P3-hand", TreeDecomposition(
        RootedTree([0, 0, 0]), p3,
        (0b10, 0b11, 0b110),
    )))
    c4 = named_graph("C4")
    cases.append(("C4-hand", TreeDecomposition(
        RootedTree([0, 0]), c4,
        (0b1011, 0b1110),
    )))
    k4 = named_graph("K4")
    cases.append(("K4-hand", TreeDecomposition(
        RootedTree([0]), k4, (0b1111,),
    )))
    for name, td in cases:
        assert validate_td(td).ok, name
        ptd = from_tree_decomposition(td)
        assert is_exact(ptd), name
        assert ptd_width(ptd) <= td_width(td), name
        assert ptd_depth(ptd) <= td_depth(td), name
        back = to_tree_decomposition(ptd, td.host)
        assert validate_td(back).ok, name
        assert td_width(back) <= td_width(td), name
        assert td_depth(back) <= td_depth(td), name
    print(f"\nPASS criterion 5: {len(cases)} round trips preserve validity and bounds")


def test_criterion_6_branching_bound(pipeline_runs):
    """Final depth never exceeds the branching-node count of the deepest
    original branch."""
    plain, fuzzed = pipeline_runs
    for name, _g, k, _cost, r in plain + fuzzed:
        assert check_branching_depth_bound(r.exact_ptd, r.strategy_tree), (name, k)
    print(
        f"\nPASS criterion 6: branching bound on {len(plain) + len(fuzzed)} runs"
    )


def test_criterion_7_sanity_values():
    """Complete-graph thresholds and the edgeless immediate cop win,
    cross-checked against a memo-free minimax where affordable."""
    for n in (2, 3, 4):
        gc = closure(named_graph(f"K{n}"))
        assert minimum_placements(gc, n, False, n) == n
        for q in range(1, n + 3):
            assert minimum_placements(gc, n - 1, False, q) is None

    oracle_checked = 0
    for n in (2, 3):
        gc = closure(named_graph(f"K{n}"))
        assert naive_cop_wins(gc, n, n, False)
        for q in range(1, n + 3):
            assert not naive_cop_wins(gc, n - 1, q, False)
            oracle_checked += 1
    gc4 = closure(named_graph("K4"))
    assert naive_cop_wins(gc4, 4, 4, False)
    for q in (1, 2, 3):
        assert not naive_cop_wins(gc4, 3, q, False)
        oracle_checked += 1

    for k in (1, 2, 3):
        for q in (1, 2, 3):
            res = solve(Graph(3, []), GameConfig(k, q))
            assert res.winner == "cop"
            assert res.position_count == 0
    print(
        f"\nPASS criterion 7: complete-graph thresholds (oracle-checked on "
        f"{oracle_checked} robber instances) and edgeless immediate win"
    )
