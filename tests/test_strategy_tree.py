import pytest

from bdtw.corpus import NAMED, all_graphs, named_graph
from bdtw.errors import FormatError, StrategyError
from bdtw.game import (
    GameConfig,
    Strategy,
    _replies,
    minimum_placements,
    replay_cop_strategy,
    solve,
)
from bdtw.graphs import Graph, closure, components, incident_edges
from bdtw.monotonize import check_branching_depth_bound, run
from bdtw.pre_tree import (
    PreTreeDecomposition,
    dumps_ptd,
    is_exact,
    is_exact_edge,
    loads_ptd,
    ptd_depth,
    ptd_width,
    to_tree_decomposition,
    validate_ptd,
)
from bdtw.strategy_tree import (
    FuzzResult,
    StrategyTree,
    build,
    check_monotone_exact,
    check_self_loop_cones,
    depth_iff_winning,
    fuzz_nonmonotone,
    move_is_monotone,
    structural_branching,
)
from bdtw.tree_decomp import td_depth, td_width, validate_td
from oracles import all_parts, branching_oracle, component


def fresh_vertex(st, t):
    """The vertex the move into node t places: bag(t) minus its parent's."""
    placed = st.ptd.bags[t] & ~st.ptd.bags[st.ptd.tree.parent[t]]
    assert placed.bit_count() == 1
    return placed.bit_length() - 1


def internal_nodes(st):
    """Non-root nodes with children: the nodes a cop move creates."""
    tree = st.ptd.tree
    return {t for t in tree.nodes if t != tree.root and tree.children[t]}


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

    def test_monotone_config_refuses_a_detour(self):
        # A fuzzed detour keeps fewer cops than the robber's part needs, so
        # under a monotone config build refuses it, as replay does.
        gc = closure(named_graph("C4"))
        sigma = solve(gc, GameConfig(3, 3)).strategy
        fz = fuzz_nonmonotone(gc, sigma, GameConfig(3, 3), 2, seed=0)
        assert fz.placements_bound == 5
        build(gc, fz.strategy, GameConfig(3, 5))
        for judge in (replay_cop_strategy, build):
            with pytest.raises(StrategyError, match="illegal move"):
                judge(gc, fz.strategy, GameConfig(3, 5, monotone=True))

    def test_requires_closure_host(self, e1):
        with pytest.raises(ValueError):
            build(e1, Strategy(), GameConfig(1, 1))


class TestBranching:
    def test_e1_marks(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        assert structural_branching(st) == frozenset({1, 2})

    def test_root_children_branch(self):
        for name, k, q in CORPUS:
            st, _, _ = solved_tree(named_graph(name), k, q)
            for c in st.ptd.tree.children[st.ptd.tree.root]:
                assert c in structural_branching(st)

    def test_structural_characterization(self):
        # A lone self-loop child cone marks exactly the moves whose fresh
        # vertex touches the robber's part, on solver and fuzzed trees.
        for name, k, q in CORPUS:
            for fuzz in (0, 1, 2):
                st, _, _ = solved_tree(named_graph(name), k, q, fuzz=fuzz, seed=11)
                assert structural_branching(st) == branching_oracle(st.ptd)

    def test_k3_all_placements_branch(self):
        st, _, _ = solved_tree(named_graph("K3"), 3, 3)
        placements = internal_nodes(st)
        assert placements == structural_branching(st)
        assert len(placements) == 3

    def test_bare_loop_vertices_still_branch(self):
        # A vertex whose only edge is its self-loop: placing onto it is a
        # placement into the escape space, while the root's component cones
        # (also lone loops here) must not count.
        g = Graph(4, [(2, 2), (0, 1)])
        gc = closure(g)
        res = solve(gc, GameConfig(4, 4))
        st = build(gc, res.strategy, GameConfig(4, 4))
        marked = structural_branching(st)
        assert marked == branching_oracle(st.ptd)
        assert st.ptd.tree.root not in marked
        loop_nodes = [
            t for t in internal_nodes(st)
            if gc.incident_mask(v := fresh_vertex(st, t)) == 1 << gc.edge_id(v, v)
        ]
        assert loop_nodes and all(t in marked for t in loop_nodes)

    def test_branching_nodes_split_the_space(self):
        # A cop placed onto a non-isolated vertex splits off its loop, so a
        # branching node has at least two children.
        for name, k, q in CORPUS:
            for fuzz in (0, 1):
                st, gc, _ = solved_tree(named_graph(name), k, q, fuzz=fuzz, seed=2)
                for t in structural_branching(st):
                    v = fresh_vertex(st, t)
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


class TestObservationsSayNo:
    """The monotone strategy tree of P3 (edges ab=0, bc=1, aa=2, bb=3,
    cc=4) with one cone replaced breaks one observation.  Node 1 places b,
    and its child 2 adds a; 2's children are the leaves 5 (cone {ab}) and
    6 (cone {aa})."""

    @pytest.fixture
    def p3_tree(self):
        g = closure(named_graph("P3"))
        st = build(g, solve(g, GameConfig(2, 2, monotone=True)).strategy, GameConfig(2, 2))
        tree, bags = st.ptd.tree, st.ptd.bags
        assert tree.children[2] == (5, 6) and (bags[1], bags[2]) == (0b010, 0b011)
        assert (st.ptd.cone(2, 5), st.ptd.cone(2, 6)) == (0b00001, 0b00100)
        return st

    @staticmethod
    def with_cones(st, cones):
        ptd = st.ptd
        return StrategyTree(
            PreTreeDecomposition(ptd.tree, ptd.host, ptd.bags, {**ptd.cones, **cones}),
            st.strategy)

    def test_monotone_move_over_a_nonexact_edge(self, p3_tree):
        bad = self.with_cones(p3_tree, {(2, 1): 0})
        assert move_is_monotone(bad, 2) and not is_exact_edge(bad.ptd, 1, 2)
        assert check_monotone_exact(p3_tree) and not check_monotone_exact(bad)

    def test_nonexact_edge_without_a_removal(self, p3_tree):
        # The part {aa} has the boundary {a}, which the kept cops {b} do
        # not hold, so the move is not monotone; the cops remove nobody.
        bad = self.with_cones(p3_tree, {(1, 2): 0b00100})
        assert not move_is_monotone(bad, 2) and not is_exact_edge(bad.ptd, 1, 2)
        assert not check_monotone_exact(bad)

    def test_bag_loop_in_no_cone_of_its_own(self, p3_tree):
        # Node 2's bag holds a, whose loop aa is not toward the parent; its
        # singleton child cone gains ab.
        bad = self.with_cones(p3_tree, {(2, 6): 0b00101})
        assert check_self_loop_cones(p3_tree) and not check_self_loop_cones(bad)


class TestFuzzer:
    def test_deterministic_under_seed(self):
        g = closure(named_graph("C4"))
        sigma = solve(g, GameConfig(3, 3)).strategy
        a = fuzz_nonmonotone(g, sigma, GameConfig(3, 3), 2, seed=9)
        b = fuzz_nonmonotone(g, sigma, GameConfig(3, 3), 2, seed=9)
        assert a.strategy.moves == b.strategy.moves

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


class TestReplacement:
    def test_replacement_move_is_read_off_the_bags(self):
        # On closure(P4) the cops place 1, then 2, then re-place {1,2} ->
        # {2} with the robber at vertex 3, then place 3.  The re-placement
        # keeps cop 2 (bag(s) & bag(t)) and leaves the robber's part whole,
        # so its tree edge is exact and it places no fresh cop: it is no
        # branching node.
        g = closure(named_graph("P4"))

        def comp(x_mask, v):
            """The component of G - x that holds v."""
            return next(c for c in components(g, x_mask) if c >> v & 1)

        sigma = Strategy({
            (0, 0b1111): 0b0010,
            (0b0010, comp(0b0010, 0)): 0b0011,
            (0b0010, comp(0b0010, 3)): 0b0110,
            (0b0110, comp(0b0110, 3)): 0b0100,
            (0b0100, comp(0b0100, 3)): 0b1100,
        })
        cfg = GameConfig(3, 4)
        assert replay_cop_strategy(g, sigma, cfg).wins
        # The same move is a legal monotone one: its kept cop 2 holds the
        # robber's part whole.
        assert replay_cop_strategy(g, sigma, GameConfig(3, 4, monotone=True)).wins
        st = build(g, sigma, cfg)
        tree, bags = st.ptd.tree, st.ptd.bags
        (t,) = [t for t in tree.nodes if bags[t] == 0b0100 and tree.children[t]]
        assert bags[tree.parent[t]] == 0b0110
        assert is_exact_edge(st.ptd, tree.parent[t], t)
        assert check_monotone_exact(st)
        assert check_self_loop_cones(st)
        assert t not in structural_branching(st)
        assert structural_branching(st) == branching_oracle(st.ptd)
        exact = run(st.ptd, verify=True)
        assert is_exact(exact)
        assert ptd_depth(exact) == 3
        assert check_branching_depth_bound(exact, st)


class TestUnreplayedReplies:
    def test_build_records_parts_meeting_the_in_cone_only(self):
        # Closure of ({0,1,2,3}, {02, 03, 12}), k = 2.  After {2} -> {0}
        # the kept cops are none, so the robber in {12,11} may also reach
        # {03,33}, a part that meets none of its edges.  build does not
        # record that reply, so its tree misses the escape that replay
        # finds; the decomposition it records still exactifies to a valid
        # one, which proves itself.
        g = closure(Graph(4, [(0, 2), (0, 3), (1, 2)]))
        # Positions are (cops, the robber's component); the comments give
        # the component's part.
        sigma = Strategy({
            (0b0000, 0b1111): 0b0100,
            (0b0100, 0b0010): 0b0001,  # {12, 11}
            (0b0100, 0b1001): 0b0101,  # {02, 03, 00, 33}
            (0b0001, 0b0110): 0b0101,  # {02, 12, 11, 22}
            (0b0001, 0b1000): 0b0001,  # {03, 33}
            (0b0101, 0b0010): 0b0110,  # {12, 11}
            (0b0101, 0b1000): 0b1001,  # {03, 33}
        })
        assert incident_edges(g, 0b1001) == g.mask_of([(0, 2), (0, 3), (0, 0), (3, 3)])
        cfg = GameConfig(2, 4)
        outcome = replay_cop_strategy(g, sigma, cfg)
        assert not outcome.wins
        assert outcome.escape[:3] == (
            ("start", 0, 0b1111),
            ("move", 0b0000, 0b1111, 0b0100, 0b0010),
            ("move", 0b0100, 0b0010, 0b0001, 0b1000),
        )
        assert outcome.escape[-1][0] == "survived"
        st = build(g, sigma, cfg)
        assert len(st.ptd.tree.nodes) == 16
        assert ptd_depth(st.ptd) == 4
        assert not depth_iff_winning(st, cfg)
        td = to_tree_decomposition(run(st.ptd, verify=True), g)
        assert validate_td(td).ok
        assert td_width(td) == 1
        assert td_depth(td) == 3


class TestChildrenAreFilteredReplies:
    def test_children_are_the_replies_meeting_the_in_cone(self):
        # Every graph with n <= 4, closure, k 1-3, the least winning q,
        # unfuzzed and with fuzz slack 2.  At each internal node build's
        # children are the parts under bag(t) that meet the in-cone, and
        # after a monotone move every reply of the game meets it, so the
        # filter drops nothing there.
        nodes = monotone = 0
        for n in range(1, 5):
            for g in all_graphs(n):
                for k in range(1, 4):
                    q = minimum_placements(closure(g), k, False, n)
                    if q is None:
                        continue
                    for fuzz in (0, 2):
                        st, gc, _ = solved_tree(g, k, q, fuzz=fuzz)
                        tree, bags = st.ptd.tree, st.ptd.bags
                        for t in internal_nodes(st):
                            s = tree.parent[t]
                            in_cone = st.ptd.cone(s, t)
                            children = [st.ptd.cone(t, c) for c in tree.children[t]]
                            assert children == [
                                p for p in all_parts(gc, bags[t]) if p & in_cone]
                            nodes += 1
                            if move_is_monotone(st, t):
                                monotone += 1
                                c_mask = component(gc, bags[s], in_cone)
                                replies = _replies(gc, bags[s], c_mask, bags[t])
                                assert all(incident_edges(gc, r) & in_cone for r in replies)
        assert (nodes, monotone) == (1170, 1016)


class TestMonotoneReplay:
    def test_monotone_strategies_replay_and_detours_do_not(self):
        # Over the named corpus, closure, k 1-4, q the monotone cost: each
        # monotone solver strategy replays as a monotone win within q and
        # builds under the monotone config, and each fuzzed copy with a
        # detour has a non-exact tree edge, whose move monotone replay and
        # build must both refuse.
        strategies = detoured = 0
        for name in NAMED:
            gc = closure(named_graph(name))
            for k in range(1, 5):
                q = minimum_placements(gc, k, True, gc.n)
                if q is None:
                    continue
                sigma = solve(gc, GameConfig(k, q, monotone=True)).strategy
                outcome = replay_cop_strategy(gc, sigma, GameConfig(k, q, monotone=True))
                assert outcome.wins and outcome.max_placements <= q, (name, k)
                build(gc, sigma, GameConfig(k, q, monotone=True))
                strategies += 1
                for seed in range(3):
                    fz = fuzz_nonmonotone(gc, sigma, GameConfig(k, q), 2, seed)
                    if not fz.injected:
                        continue
                    ptd = build(gc, fz.strategy, GameConfig(k, fz.placements_bound)).ptd
                    assert not all(is_exact_edge(ptd, s, t) for s, t in ptd.tree.edges())
                    for judge in (replay_cop_strategy, build):
                        with pytest.raises(StrategyError, match="illegal move"):
                            judge(gc, fz.strategy,
                                  GameConfig(k, fz.placements_bound, monotone=True))
                    detoured += 1
        assert (strategies, detoured) == (33, 99)


class TestSerialization:
    def test_round_trip(self):
        # A strategy tree is its decomposition: the .ptd text carries the
        # bags, the cones, and so the moves and the branching nodes.
        st, _, _ = solved_tree(named_graph("P3"), 2, 2, fuzz=1, seed=5)
        back = StrategyTree(loads_ptd(dumps_ptd(st.ptd)), st.strategy)
        assert back.ptd.bags == st.ptd.bags
        assert back.ptd.cones == st.ptd.cones
        assert structural_branching(back) == structural_branching(st)
        assert check_monotone_exact(back)

    # The records a strategy tree is read back from are its node and cone
    # lines: the move into node t is the step from its parent's bag to
    # bag(t), so a bad move is a bad bag, and a second move a second record.
    @pytest.mark.parametrize("old, new, match", [
        ("n 1 0 : 0", "n 1 0 : 0 99", "^line 6: bag vertex"),  # bag vertex outside the host
        ("n 1 0 : 0", "n x 0 : 0", "^line 6:"),  # non-integer token
        ("n 1 0 : 0", "n 1 9 : 0", "parent of 1 out of range"),  # node outside the tree
        ("n 2 1 : 0 1", "n 2 1 : 0 5", "^line 7: bag vertex"),  # placed vertex outside the host
        ("n 1 0 : 0", "n 1 0 : 0 7", "^line 6: bag vertex"),  # removed vertex outside the host
        ("n 1 0 : 0", "n 1 0 : 0\nn 1 0 : 0", "^line 7: duplicate node 1"),  # second move for one node
    ], ids=["bag-vertex", "non-integer", "node-outside-tree", "placed-vertex",
            "removed-vertex", "repeated-move"])
    def test_reader_rejects_bad_records(self, old, new, match):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        text = dumps_ptd(st.ptd)
        assert old in text
        with pytest.raises(FormatError, match=match):
            loads_ptd(text.replace(old, new))


class TestMoveLog:
    def test_moves_recorded(self):
        # The move into node t is bag(parent) -> bag(t): from no cops the
        # cops place 0, then 1; the leaves hold the captured edge.
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        tree, bags = st.ptd.tree, st.ptd.bags
        assert [(bags[tree.parent[t]], bags[t]) for t in sorted(internal_nodes(st))] == [
            (0, 0b1), (0b1, 0b11)]
        assert [fresh_vertex(st, t) for t in sorted(internal_nodes(st))] == [0, 1]
        assert not tree.children[4]  # leaves carry no move
