"""Seeded randomized sweeps tying the whole chain together.

These are deliberately broad rather than deep: loops-allowed random hosts
up to the intended working scale, with every artifact re-validated and
every observation re-checked.  Failures here have historically pointed at
genuine reading mistakes (see the branching-mark regression), so keep the
seeds fixed and the instance counts modest.
"""

import itertools
import random

from bdtw.corpus import all_graphs
from bdtw.game import (
    GameConfig,
    RobberStrategy,
    _Solver,
    minimum_placements,
    solve,
)
from bdtw.graphs import Graph, bitmask, closure, incident_edges, is_connected_set
from bdtw.monotonize import check_branching_depth_bound, monotonize_pipeline
from bdtw.pre_tree import (
    from_tree_decomposition,
    is_exact,
    ptd_depth,
    ptd_width,
    to_tree_decomposition,
)
from bdtw.strategy_tree import (
    check_monotone_exact,
    check_self_loop_cones,
    depth_iff_winning,
    structural_branching,
)
from bdtw.tree_decomp import (
    TreeDecomposition,
    check_connected_trace,
    td_depth,
    td_width,
    tighten,
    validate_td,
)
from test_monotonize import check_valid_mutants
from oracles import (
    branching_oracle,
    live_parts,
    macro_moves,
    monotone_kept_set_cases,
    one_placement_cases,
    three_placement_refutations,
    two_placement_cases,
)


def random_host(rng, max_n=7, max_m=12, min_n=1):
    n = rng.randint(min_n, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    m = rng.randint(0, min(len(pairs), max_m))
    return Graph(n, rng.sample(pairs, m))


def test_pipeline_soak():
    rng = random.Random(777)
    pipelines = 0
    for trial in range(300):
        g = random_host(rng)
        k = rng.randint(1, min(5, max(1, g.n)))
        gc = closure(g)
        costs = [
            minimum_placements(host, k, monotone, 7)
            for host in (gc, g)
            for monotone in (False, True)
        ]
        for q in range(1, 8):
            assert len({c is not None and c <= q for c in costs}) == 1, (g.edges, k, q)
        cost = costs[0]
        if cost is None or cost > 6:
            continue
        r = monotonize_pipeline(g, k, cost, fuzz_slack=rng.randint(1, 2),
                                seed=trial, verify=True)
        assert validate_td(r.td).ok
        assert td_width(r.td) <= k - 1
        assert td_depth(r.td) <= r.placements_bound
        assert is_exact(r.exact_ptd)
        assert ptd_width(r.exact_ptd) <= ptd_width(r.strategy_tree.ptd)
        assert ptd_depth(r.exact_ptd) <= ptd_depth(r.strategy_tree.ptd)
        assert check_branching_depth_bound(r.exact_ptd, r.strategy_tree)
        st = r.strategy_tree
        assert check_monotone_exact(st)
        assert check_self_loop_cones(st)
        assert structural_branching(st) == branching_oracle(st.ptd)
        assert depth_iff_winning(st, GameConfig(k, r.placements_bound))
        pipelines += 1
    assert pipelines >= 150


def test_dense_fuzz_pipeline_soak():
    # Slack 25 on dense 9-vertex closures puts more than 20 free edges at
    # some nodes; every pipeline must still complete within its bounds.
    rng = random.Random(909)
    pairs = list(itertools.combinations(range(9), 2))
    pipelines = 0
    for trial in range(8):
        g = Graph(9, rng.sample(pairs, rng.randint(12, 20)))
        k = rng.randint(3, 5)
        cost = minimum_placements(closure(g), k, False, 7)
        if cost is None:
            continue
        r = monotonize_pipeline(g, k, cost, fuzz_slack=25, seed=trial, verify=True)
        assert validate_td(r.td).ok
        assert td_width(r.td) <= k - 1
        assert td_depth(r.td) <= r.placements_bound
        assert check_branching_depth_bound(r.exact_ptd, r.strategy_tree)
        pipelines += 1
    assert pipelines >= 5


def test_robber_certificate_soak():
    rng = random.Random(2025)
    survived = 0
    for _trial in range(120):
        g = closure(random_host(rng, max_n=5, max_m=8, min_n=2))
        k = rng.randint(1, 2)
        q = rng.randint(1, 3)
        cfg = GameConfig(k, q)
        res = solve(g, cfg)
        if res.winner != "robber":
            continue
        robber = res.strategy
        assert isinstance(robber, RobberStrategy)
        seen = set()

        def walk(x_mask, c_mask, used):
            key = (x_mask, c_mask, used)
            if key in seen or used >= q:
                return
            seen.add(key)
            for new_mask in macro_moves(g, k, False, x_mask, incident_edges(g, c_mask)):
                choice = robber.respond(x_mask, c_mask, used, new_mask)
                assert incident_edges(g, choice) in live_parts(g, new_mask)
                walk(new_mask, choice, used + 1)

        walk(0, robber.initial_choice(), 0)
        survived += 1
    assert survived >= 40


def test_padded_round_trip_soak():
    rng = random.Random(31337)
    rounds = 0
    for _trial in range(80):
        g = random_host(rng, max_n=6, max_m=9)
        k = rng.randint(1, min(4, max(1, g.n)))
        cost = minimum_placements(closure(g), k, False, 6)
        if cost is None:
            continue
        base = monotonize_pipeline(g, k, cost).td
        bags = list(base.bags)
        for _ in range(rng.randint(0, 4)):
            t = rng.randrange(len(bags))
            v = rng.randrange(g.n)
            holders = [s for s in base.tree.nodes if bags[s] >> v & 1]
            if holders:
                for s in base.tree.path_between(holders[0], t):
                    bags[s] |= 1 << v
            else:
                bags[t] |= 1 << v
        padded = TreeDecomposition(base.tree, g, tuple(bags))
        assert validate_td(padded).ok
        for size in (1, 2, 3):
            for combo in itertools.combinations(range(g.n), size):
                if is_connected_set(g, bitmask(combo)):
                    assert check_connected_trace(padded, bitmask(combo))
        ptd = from_tree_decomposition(padded)
        assert is_exact(ptd)
        assert ptd_width(ptd) <= td_width(padded)
        assert ptd_depth(ptd) <= td_depth(padded)
        back = to_tree_decomposition(ptd, g)
        assert validate_td(back).ok
        assert td_width(back) <= td_width(padded)
        assert td_depth(back) <= td_depth(padded)
        tight = tighten(padded)
        assert validate_td(tight).ok
        assert td_width(tight) <= td_width(padded)
        rounds += 1
    assert rounds >= 40


def test_valid_mutant_soak():
    # Valid pre-decompositions that are no strategy trees, as
    # TestRun.test_valid_mutants_exactify over more seeds.
    assert check_valid_mutants(range(14, 26), 100) >= 1800


def test_monotone_kept_sets_soak():
    # The Tier-1 kept-set check one size up: every graph on 5 vertices and
    # its closure, every position, k 1-6.
    checked = 0
    for g in all_graphs(5):
        for host in (g, closure(g)):
            solvers = {k: _Solver(host, k, True) for k in range(1, host.n + 2)}
            for k, x_mask, c_mask, kept in monotone_kept_set_cases(host):
                assert solvers[k]._kept_sets(x_mask, c_mask) == kept, (host, k, x_mask, c_mask)
                checked += 1
    assert checked == 405_576


def test_wins_in_one_soak():
    # The Tier-1 one-placement check one size up: every graph on 5
    # vertices and its closure, every component position, k 1-6, both
    # variants.
    checked = 0
    for g in all_graphs(5):
        for host in (g, closure(g)):
            solvers = {}
            for k, monotone, x_mask, c_mask, wins in one_placement_cases(host, live_parts):
                solver = solvers.get((k, monotone))
                if solver is None:
                    solver = solvers[(k, monotone)] = _Solver(
                        Graph(host.n, host.edges), k, monotone)
                assert solver.win(x_mask, c_mask, 1) == wins, (host, k, monotone, x_mask, c_mask)
                checked += 1
            assert not any(solver._succ_cache for solver in solvers.values())
    assert checked == 811_152


def test_wins_in_two_soak():
    # The Tier-1 two-placement check one size up: every graph on 5
    # vertices and its closure, every component position, k 1-6, both
    # variants.
    checked = 0
    for g in all_graphs(5):
        for host in (g, closure(g)):
            solvers = {}
            for k, monotone, x_mask, c_mask, wins in two_placement_cases(host, live_parts):
                solver = solvers.get((k, monotone))
                if solver is None:
                    solver = solvers[(k, monotone)] = _Solver(
                        Graph(host.n, host.edges), k, monotone)
                assert solver.win(x_mask, c_mask, 2) == wins, (host, k, monotone, x_mask, c_mask)
                checked += 1
            assert not any(solver._succ_cache for solver in solvers.values())
    assert checked == 811_152


def test_loses_in_three_soak():
    # The Tier-1 three-placement check over a wider seed range: random
    # hosts on 5 to 7 vertices with loops, every component position, k
    # 1..n+1, both variants.  The list search loses wherever the rule
    # refutes.
    rng = random.Random(2626)
    refuted = 0
    for _ in range(400):
        host = random_host(rng, max_n=7, max_m=16, min_n=5)
        for k, monotone, x_mask, c_mask, wins in three_placement_refutations(host):
            assert not wins, (host, k, monotone, x_mask, c_mask)
            refuted += 1
    assert refuted == 18_794
