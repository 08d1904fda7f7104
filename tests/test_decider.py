"""A game-free decider as a third witness.

`oracles.elimination_depth` decides T^k_q by the width-capped
elimination-forest recursion, without playing the game.  The solver's four
variants and the certificate pipeline must agree with it.
"""

import pytest

from bdtw.corpus import NAMED, all_graphs, complete_graph, named_graph, path_graph
from bdtw.game import cops_win, minimum_placements, variant_costs
from bdtw.graphs import Graph, closure
from bdtw.monotonize import monotonize_pipeline
from bdtw.tree_decomp import td_depth
from oracles import elimination_depth

CAP = 7


def test_textbook_values():
    assert elimination_depth(path_graph(7), 7) == 3  # treedepth of P7
    assert elimination_depth(path_graph(7), 1) is None  # an edge needs 2 cops
    assert elimination_depth(complete_graph(4), 4) == 4
    assert elimination_depth(complete_graph(4), 3) is None  # treewidth 3
    assert elimination_depth(Graph(3, []), 1) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_every_variant_agrees_with_the_decider(n):
    for g in all_graphs(n):
        for k, costs in zip(range(1, 6), variant_costs(g, range(1, 6), CAP)):
            depth = elimination_depth(g, k)
            for q in range(1, CAP + 1):
                member = depth is not None and depth <= q
                verdicts = [cost is not None and cost <= q for cost in costs]
                assert verdicts == [member] * 4, (g, k, q, depth, costs)


@pytest.mark.parametrize("n", range(1, 6))
def test_one_search_at_q_gives_the_verdict(n):
    # A certificate-free decide searches once at b = q; its verdict is
    # that of the deepening search, minimum_placements(..., q) is not None,
    # which holds exactly when the least cost up to CAP is at most q.
    for g in all_graphs(n):
        gc = closure(g)
        for k in range(1, 6):
            cost = minimum_placements(Graph(gc.n, gc.edges), k, False, CAP)
            for q in range(1, CAP + 1):
                assert cops_win(gc, k, q) == (cost is not None and cost <= q), (g, k, q)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_certificates_are_no_shallower_than_the_decider(name):
    # At q = the decider's depth the pipeline certifies membership; a
    # certificate shallower than that depth would refute the decider.
    g = named_graph(name)
    for k in range(1, 6):
        depth = elimination_depth(g, k)
        if depth is None or depth > CAP:
            continue
        r = monotonize_pipeline(g, k, depth)
        assert r.member, (name, k, depth)
        assert td_depth(r.td) >= depth, (name, k, depth)
