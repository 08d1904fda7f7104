import pytest

from bdtw.corpus import all_graphs, named_graph
from bdtw.errors import FormatError, StrategyError
from bdtw.game import GameConfig, Strategy, replay_cop_strategy, solve
from bdtw.graphs import Graph, closure
from bdtw.pre_tree import is_exact_edge, ptd_depth, ptd_width, validate_ptd
from bdtw.strategy_tree import (
    FuzzResult,
    Move,
    build,
    check_monotone_exact,
    check_self_loop_cones,
    depth_iff_winning,
    dumps_strategy_tree,
    fuzz_nonmonotone,
    loads_strategy_tree,
    structural_branching,
)


def solved_tree(g, k, q, fuzz=0, seed=0):
    gc = closure(g)
    res = solve(gc, GameConfig(k, q))
    assert res.winner == "cop"
    sigma = res.strategy
    bound = q
    if fuzz:
        fz = fuzz_nonmonotone(gc, sigma, GameConfig(k, q), fuzz, seed)
        sigma, bound = fz.strategy, fz.placements_bound
    return build(gc, sigma, GameConfig(k, bound)), gc, bound


CORPUS = [
    ("E1", 2, 2),
    ("P3", 2, 2),
    ("P4", 2, 3),
    ("K3", 3, 3),
    ("C4", 3, 3),
]


class TestBuild:
    def test_e1_reference_shape(self, e1c):
        # Children come in canonical part order (least contained edge id),
        # so the {ab,bb} pocket precedes the {aa} capture leaf.
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        ptd = st.ptd
        assert ptd.tree.parent == (0, 0, 1, 1, 2, 2)
        assert ptd.bags == (
            0, 0b1, 0b11,
            0b1, 0b11, 0b10,
        )
        assert ptd.cone(0, 1) == 0b111
        assert ptd.cone(1, 0) == 0
        assert ptd.cone(1, 2) == 0b101
        assert ptd.cone(1, 3) == 0b010
        assert ptd.cone(2, 4) == 0b001
        assert ptd.cone(2, 5) == 0b100
        assert validate_ptd(ptd).ok
        assert ptd_width(ptd) == 1
        assert ptd_depth(ptd) == 2

    def test_isolated_vertex_chain(self):
        # One looped vertex: the cop places onto it, then the robber is
        # caught; the loop cone hangs below the placement node.
        g = closure(Graph(1, []))
        sigma = Strategy({(0, 0b1): 0b1})
        st = build(g, sigma, GameConfig(1, 1))
        assert st.ptd.tree.parent == (0, 0, 1)
        assert st.ptd.cone(0, 1) == 0b1
        assert st.ptd.cone(1, 2) == 0b1
        assert st.ptd.bags[2] == 0b1
        assert validate_ptd(st.ptd).ok

    def test_k3_bounds(self):
        st, _, _ = solved_tree(named_graph("K3"), 3, 3)
        assert ptd_width(st.ptd) == 2
        assert ptd_depth(st.ptd) == 3

    def test_corpus_trees_validate(self):
        for name, k, q in CORPUS:
            st, _, _ = solved_tree(named_graph(name), k, q)
            assert validate_ptd(st.ptd).ok
            assert ptd_depth(st.ptd) <= q

    def test_partial_strategy_raises(self, e1c):
        with pytest.raises(StrategyError):
            build(e1c, Strategy(), GameConfig(2, 2))

    def test_not_winning_within_cutoff_raises(self, e1c):
        res = solve(e1c, GameConfig(2, 2))
        with pytest.raises(StrategyError, match="placements"):
            build(e1c, res.strategy, GameConfig(2, 1))

    def test_requires_closure_host(self, e1):
        with pytest.raises(ValueError):
            build(e1, Strategy(), GameConfig(1, 1))


class TestBranching:
    def test_e1_marks(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        assert st.branching == frozenset({1, 2})

    def test_root_children_branch(self):
        for name, k, q in CORPUS:
            st, _, _ = solved_tree(named_graph(name), k, q)
            for c in st.ptd.tree.children[st.ptd.tree.root]:
                assert st.is_branching(c)

    def test_structural_characterization(self):
        for name, k, q in CORPUS:
            for fuzz in (0, 1):
                st, _, _ = solved_tree(named_graph(name), k, q, fuzz=fuzz, seed=11)
                assert st.branching == structural_branching(st)

    def test_k3_all_placements_branch(self):
        st, _, _ = solved_tree(named_graph("K3"), 3, 3)
        placements = set(st.move_log)
        assert placements == st.branching
        assert len(placements) == 3

    def test_bare_loop_vertices_still_branch(self):
        # A vertex whose only edge is its self-loop: placing onto it is a
        # placement into the escape space, while the root's component cones
        # (also lone loops here) must not count.
        g = Graph(4, [(2, 2), (0, 1)])
        gc = closure(g)
        res = solve(gc, GameConfig(4, 4))
        st = build(gc, res.strategy, GameConfig(4, 4))
        marked = st.branching
        assert marked == structural_branching(st)
        assert st.ptd.tree.root not in marked
        loop_nodes = [
            t for t, move in st.move_log.items()
            if gc.incident_mask(move.placed) == 1 << gc.edge_id(move.placed, move.placed)
        ]
        assert loop_nodes and all(t in marked for t in loop_nodes)

    def test_branching_nodes_split_the_space(self):
        # A cop placed onto a non-isolated vertex splits off its loop, so a
        # branching node has at least two children.
        for name, k, q in CORPUS:
            for fuzz in (0, 1):
                st, gc, _ = solved_tree(named_graph(name), k, q, fuzz=fuzz, seed=2)
                for t in st.branching:
                    v = st.move_log[t].placed
                    non_isolated = any(
                        u != v
                        for e in gc.edge_ids(gc.incident_mask(v))
                        for u in gc.endpoints(e)
                    )
                    if non_isolated:
                        assert len(st.ptd.tree.children[t]) >= 2


class TestObservations:
    def test_monotone_strategy_tree_fully_exact(self):
        g = closure(named_graph("P3"))
        res = solve(g, GameConfig(2, 2, monotone=True))
        st = build(g, res.strategy, GameConfig(2, 2))
        assert all(is_exact_edge(st.ptd, p, c) for p, c in st.ptd.tree.edges())
        assert check_monotone_exact(st)

    def test_fuzzed_tree_has_nonexact_edge(self):
        st, _, _ = solved_tree(named_graph("P3"), 2, 2, fuzz=1, seed=5)
        assert any(
            not is_exact_edge(st.ptd, p, c) for p, c in st.ptd.tree.edges()
        )
        assert check_monotone_exact(st)

    def test_corpus_observations(self):
        for name, k, q in CORPUS:
            for fuzz in (0, 1):
                st, _, bound = solved_tree(named_graph(name), k, q, fuzz=fuzz, seed=3)
                assert check_monotone_exact(st)
                assert check_self_loop_cones(st)
                assert depth_iff_winning(st, GameConfig(k, bound))

    def test_depth_exceeds_when_strategy_needs_slack(self):
        # A fuzzed strategy needs q+1 placements, so at budget q the tree
        # (built with the relaxed cutoff) is deeper than q and replay loses.
        g = closure(named_graph("P3"))
        res = solve(g, GameConfig(2, 2))
        fz = fuzz_nonmonotone(g, res.strategy, GameConfig(2, 2), 1, seed=5)
        assert fz.injected == 1
        st = build(g, fz.strategy, GameConfig(2, fz.placements_bound))
        assert ptd_depth(st.ptd) == 3
        assert not replay_cop_strategy(g, fz.strategy, GameConfig(2, 2)).wins
        assert depth_iff_winning(st, GameConfig(2, 2))


class TestFuzzer:
    def test_deterministic_under_seed(self):
        g = closure(named_graph("C4"))
        sigma = solve(g, GameConfig(3, 3)).strategy
        a = fuzz_nonmonotone(g, sigma, GameConfig(3, 3), 2, seed=9)
        b = fuzz_nonmonotone(g, sigma, GameConfig(3, 3), 2, seed=9)
        assert a.strategy.moves == b.strategy.moves
        assert a.detour_keys == b.detour_keys

    def test_negative_slack_rejected(self):
        g = closure(named_graph("C4"))
        sigma = solve(g, GameConfig(3, 3)).strategy
        with pytest.raises(ValueError, match="fuzz slack"):
            fuzz_nonmonotone(g, sigma, GameConfig(3, 3), -1)

    def test_slack_respected_and_winning(self):
        for name, k, q in CORPUS:
            g = closure(named_graph(name))
            sigma = solve(g, GameConfig(k, q)).strategy
            for slack in (1, 2):
                fz = fuzz_nonmonotone(g, sigma, GameConfig(k, q), slack, seed=1)
                assert isinstance(fz, FuzzResult)
                assert 0 < fz.injected <= slack
                assert fz.placements_bound == q + fz.injected
                outcome = replay_cop_strategy(g, fz.strategy, GameConfig(k, fz.placements_bound))
                assert outcome.wins

    def test_small_graphs_give_enough_material(self):
        # The pipeline acceptance needs hundreds of fuzzed strategies;
        # check a slice of the 4-vertex corpus yields at least one each.
        produced = 0
        for g in all_graphs(4)[::9]:
            gc = closure(g)
            res = solve(gc, GameConfig(2, 4))
            if res.winner != "cop":
                continue
            fz = fuzz_nonmonotone(gc, res.strategy, GameConfig(2, 4), 1, seed=0)
            produced += fz.injected
        assert produced >= 3


class TestSerialization:
    def test_round_trip(self):
        st, _, _ = solved_tree(named_graph("P3"), 2, 2, fuzz=1, seed=5)
        text = dumps_strategy_tree(st)
        back = loads_strategy_tree(text)
        assert back.ptd.bags == st.ptd.bags
        assert back.ptd.cones == st.ptd.cones
        assert back.branching == st.branching
        assert back.move_log == st.move_log
        assert back.strategy is None

    @pytest.mark.parametrize("old, new", [
        ("n 1 0 : 0", "n 1 0 : 0 99"),  # bag vertex outside the host
        ("B 1", "B x"),  # non-integer token
        ("B 1", "B 99"),  # branching mark on a node outside the tree
        ("m 1 : place 0", "m 1 : place 5"),  # placed vertex outside the host
        ("m 1 : place 0", "m 1 : remove 7 place 0"),  # removed vertex outside the host
        ("m 1 : place 0", "m 1 : place 0\nm 1 : place 1"),  # second move for one node
    ], ids=["bag-vertex", "non-integer", "node-outside-tree", "placed-vertex",
            "removed-vertex", "repeated-move"])
    def test_reader_rejects_bad_records(self, old, new):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        text = dumps_strategy_tree(st)
        assert old in text
        with pytest.raises(FormatError):
            loads_strategy_tree(text.replace(old, new))

    def test_move_lines_format(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        text = dumps_strategy_tree(st)
        assert "m 1 : place 0" in text
        assert "B 1" in text

    def test_loaded_tree_cannot_replay(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        back = loads_strategy_tree(dumps_strategy_tree(st))
        with pytest.raises(StrategyError):
            depth_iff_winning(back, GameConfig(2, 2))


class TestMoveLog:
    def test_moves_recorded(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        assert st.move_log[1] == Move((), 0)
        assert st.move_log[2] == Move((), 1)
        assert 4 not in st.move_log  # leaves carry no move
