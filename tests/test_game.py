import random

import pytest
from hypothesis import given, settings

from bdtw import game
from bdtw.corpus import all_graphs, named_graph
from bdtw.errors import BudgetExceededError, StrategyError
from bdtw.game import (
    GameConfig,
    RobberStrategy,
    Strategy,
    _Solver,
    _is_move,
    _keeps_part,
    _replies,
    _stage,
    cops_win,
    initial_components,
    minimum_placements,
    replay_cop_strategy,
    solve,
    variant_costs,
)
from bdtw.graphs import Graph, bit_indices, boundary, closure, components, incident_edges
from conftest import small_graph_corpus, with_loop_sets
from oracles import (
    all_parts,
    component,
    full_move_cost,
    full_move_min_placements,
    full_move_win,
    is_capture,
    live_parts,
    macro_moves,
    monotone_kept_set_cases,
    naive_cop_wins,
    one_placement_cases,
    part_of,
    responses,
    submasks,
    three_placement_refutations,
    two_placement_cases,
)
from strats import graphs


def legal_moves(g, k, monotone, x_mask, c_mask):
    """The cop sets _is_move accepts from (x, c), ascending."""
    return [m for m in range(1 << g.n) if _is_move(g, k, monotone, x_mask, c_mask, m)]


class TestLegalCopMoves:
    def test_opening_moves(self, e1c):
        assert legal_moves(e1c, 2, False, 0, 0b11) == [0b01, 0b10]

    def test_monotone_forbids_releasing_removal(self, p3c):
        # The robber is at a, its part {ab, aa}.
        free = legal_moves(p3c, 2, False, 0b010, 0b001)
        mono = legal_moves(p3c, 2, True, 0b010, 0b001)
        assert set(mono) <= set(free)
        # Removing the cop on b regrows the part, so any move dropping b is
        # out in monotone mode (except re-placing b itself).
        assert 0b001 in free
        assert 0b001 not in mono
        assert 0b011 in mono

    @given(graphs(max_n=4))
    @settings(max_examples=40)
    def test_monotone_subset_of_free(self, g):
        for c_mask in initial_components(g):
            free = legal_moves(g, 2, False, 0, c_mask)
            mono = legal_moves(g, 2, True, 0, c_mask)
            assert set(mono) <= set(free)

    def test_matches_the_enumerated_moves(self):
        # Every graph on at most 4 vertices, plain and closure, k 1-4, every
        # cop set of at most k vertices, each live part (by the edge
        # reference) and every mask with at most one bit beyond the host:
        # _is_move, at the part's component, accepts exactly the moves the
        # reference enumerator lists, in both variants.
        checked = 0
        for n in range(1, 5):
            for g in all_graphs(n):
                for host in (g, closure(g)):
                    for k in range(1, 5):
                        for x_mask in range(1 << n):
                            if x_mask.bit_count() > k:
                                continue
                            for p_mask in live_parts(host, x_mask):
                                c_mask = component(host, x_mask, p_mask)
                                for monotone in (False, True):
                                    listed = set(macro_moves(host, k, monotone, x_mask, p_mask))
                                    for m in range(1 << (n + 1)):
                                        assert _is_move(host, k, monotone, x_mask, c_mask, m) \
                                            == (m in listed), (host, k, monotone, x_mask, c_mask, m)
                                    checked += 1 << (n + 1)
        assert checked == 509_536


def live_replies(g, x_mask, p_mask, new_mask):
    """The replies of the edge reference that are no capture."""
    return tuple(q for q in responses(g, x_mask, p_mask, new_mask)
                 if not is_capture(g, new_mask, q))


class TestLegalRobberResponses:
    # The rules' replies are components; their parts are the edge
    # reference's replies minus the captures.
    def test_split_after_placement(self, e1c):
        assert sorted(responses(e1c, 0, e1c.full_mask, 0b01)) == sorted(
            [e1c.mask_of([(0, 1), (1, 1)]), e1c.mask_of([(0, 0)])]
        )
        replies = _replies(e1c, 0, 0b11, 0b01)
        assert replies == (0b10,)
        assert tuple(incident_edges(e1c, r) for r in replies) == live_replies(
            e1c, 0, e1c.full_mask, 0b01)

    def test_unchanged_cops_keep_part(self, p3c):
        part = p3c.mask_of([(0, 1), (0, 0)])
        assert responses(p3c, 0b010, part, 0b010) == (part,)
        assert _replies(p3c, 0b010, 0b001, 0b010) == (0b001,)

    def test_capture_only_responses(self, e1c):
        part = e1c.mask_of([(0, 1), (1, 1)])
        assert all(is_capture(e1c, 0b11, p) for p in responses(e1c, 0b01, part, 0b11))
        assert _replies(e1c, 0b01, 0b10, 0b11) == ()


class TestIsCapture:
    # A capture is an edge whose ends are both under cops: a part of its
    # own by the edge reference, the part of no component of G - x.
    @staticmethod
    def captured(g, x_mask, part):
        return (part in all_parts(g, x_mask)
                and not any(incident_edges(g, c) & part for c in components(g, x_mask)))

    def test_edge_under_both_cops(self, e1c):
        assert self.captured(e1c, 0b11, e1c.mask_of([(0, 1)]))

    def test_loop_under_cop(self, e1c):
        assert self.captured(e1c, 0b01, e1c.mask_of([(0, 0)]))

    def test_component_part_is_not(self, e1c):
        assert not self.captured(e1c, 0b10, e1c.mask_of([(0, 1), (0, 0)]))
        assert incident_edges(e1c, 0b01) == e1c.mask_of([(0, 1), (0, 0)])


class TestSolve:
    def test_e1_two_placements(self, e1c):
        assert solve(e1c, GameConfig(2, 2)).winner == "cop"
        assert solve(e1c, GameConfig(2, 1)).winner == "robber"

    def test_k3_thresholds(self, k3):
        gc = closure(k3)
        for q in (1, 3, 6):
            assert solve(gc, GameConfig(2, q)).winner == "robber"
        assert solve(gc, GameConfig(3, 3)).winner == "cop"
        assert solve(gc, GameConfig(3, 2)).winner == "robber"

    def test_edgeless_immediate_cop_win(self):
        res = solve(Graph(3, []), GameConfig(1, 1))
        assert res.winner == "cop"
        assert res.position_count == 0

    def test_matches_naive_minimax(self):
        for g in small_graph_corpus(3):
            for host in (g, closure(g)):
                for k in (1, 2):
                    for q in (1, 2, 3):
                        for mono in (False, True):
                            got = solve(host, GameConfig(k, q, mono)).winner
                            want = "cop" if naive_cop_wins(host, k, q, mono) else "robber"
                            assert got == want, (host, k, q, mono)

    def test_budget_error(self, k3, monkeypatch):
        monkeypatch.setattr(game, "EXPANSION_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match="expanded 6 positions"):
            solve(closure(k3), GameConfig(3, 3))

    @pytest.mark.parametrize("call", [
        lambda g: GameConfig(0, 1),
        lambda g: minimum_placements(g, 0, False, 3),
        lambda g: minimum_placements(g, 1, True, 0),
        lambda g: cops_win(g, 1, 0),
        lambda g: variant_costs(g, [0], 3),
    ], ids=["config", "placements-k0", "placements-cap0", "cops-win-q0", "variant-costs-k0"])
    def test_k_and_q_below_one_are_refused(self, k3, call):
        with pytest.raises(ValueError, match="k and q must be at least 1"):
            call(k3)

    @pytest.mark.parametrize("call", [
        lambda g: GameConfig(65, 1),
        lambda g: GameConfig(1, 65),
        lambda g: cops_win(closure(named_graph("C5")), 3, 1100),
        lambda g: minimum_placements(g, 1, False, 65),
        lambda g: variant_costs(g, [65], 3),
    ], ids=["config-k", "config-q", "cops-win-q1100", "placements-cap65", "variant-costs-k65"])
    def test_k_and_q_above_the_cap_are_refused(self, k3, call):
        # No k or q above the vertex cap changes an answer; a q of 1,100
        # once ran the search into a RecursionError.
        with pytest.raises(ValueError, match=r"^[kq] \d+ is above the cap of 64$"):
            call(k3)


class TestStrategies:
    def test_cop_strategy_replays_to_capture(self, e1c, k3):
        for host, k, q in [(e1c, 2, 2), (closure(k3), 3, 3)]:
            res = solve(host, GameConfig(k, q))
            outcome = replay_cop_strategy(host, res.strategy, GameConfig(k, q))
            assert outcome.wins
            assert outcome.max_placements <= q

    def test_cop_strategy_fails_against_smaller_budget(self, k3):
        gc = closure(k3)
        res = solve(gc, GameConfig(3, 3))
        outcome = replay_cop_strategy(gc, res.strategy, GameConfig(3, 2))
        assert not outcome.wins
        assert outcome.escape is not None

    def test_robber_strategy_survives(self, k3):
        gc = closure(k3)
        q = 4
        res = solve(gc, GameConfig(2, q))
        robber = res.strategy
        assert isinstance(robber, RobberStrategy)

        def walk(x_mask, c_mask, used):
            """Robber plays the certificate against every cop behavior."""
            if used >= q:
                return
            for new_mask in macro_moves(gc, 2, False, x_mask, incident_edges(gc, c_mask)):
                choice = robber.respond(x_mask, c_mask, used, new_mask)
                assert incident_edges(gc, choice) in live_parts(gc, new_mask)
                walk(new_mask, choice, used + 1)

        start = robber.initial_choice()
        walk(0, start, 0)

    def test_robber_certificate_refuses_a_cop_win(self, e1c):
        robber = RobberStrategy(_Solver(e1c, 2, False), 2)
        with pytest.raises(StrategyError):
            robber.initial_choice()

    def test_robber_certificate_refuses_a_lost_reply(self, e1c):
        # After the cops place 0, the robber's only part is won with one
        # more placement (on 1), so no reply survives.
        robber = RobberStrategy(_Solver(e1c, 2, False), 2)
        with pytest.raises(StrategyError):
            robber.respond(0, 0b11, 0, 0b01)

    def test_strategy_undefined_raises(self, e1c):
        with pytest.raises(StrategyError):
            Strategy().next_cops(0, 0b11)

    def test_partial_strategy_escapes_where_it_is_undefined(self, k3):
        # The winning strategy without its move at the first reply to its
        # first move: the replay escapes there.
        gc = closure(k3)
        moves = dict(solve(gc, GameConfig(3, 3)).strategy.moves)
        c = initial_components(gc)[0]
        x = moves[(0, c)]
        r = _replies(gc, 0, c, x)[0]
        del moves[(x, r)]
        outcome = replay_cop_strategy(gc, Strategy(moves), GameConfig(3, 3))
        assert not outcome.wins
        assert outcome.escape == (("start", 0, c), ("move", 0, c, x, r), ("undefined", x, r))


def variants_agree(g, k, q):
    """Whether the four game variants name the same winner of the q-game."""
    return len({c is None for c in variant_costs(g, (k,), q)[0]}) == 1


class TestWinnersAgree:
    def test_e1(self, e1):
        assert variants_agree(e1, 2, 2)
        assert variants_agree(e1, 1, 5)

    def test_k3(self, k3):
        assert variants_agree(k3, 3, 3)
        assert variants_agree(k3, 2, 4)

    def test_random_small(self):
        sample = all_graphs(4)[::7]
        for g in sample:
            assert variants_agree(g, 2, 3)

    def test_one_host_for_every_k_matches_fresh_hosts(self):
        # variant_costs keeps one plain host and one closure for all of its
        # k, so the part, response and loss tables of one k are there for
        # the next.  On every graph with at most 5 vertices, each k's costs
        # equal those of that k alone on fresh hosts.
        for n in range(1, 6):
            for g in all_graphs(n):
                shared = variant_costs(Graph(g.n, g.edges), range(1, 6), 7)
                fresh = [variant_costs(Graph(g.n, g.edges), (k,), 7)[0] for k in range(1, 6)]
                assert shared == fresh, g


class TestMonotonicityProperties:
    def test_win_monotone_in_k_and_q(self):
        for g in small_graph_corpus(3):
            gc = closure(g)
            for k in (1, 2):
                for q in (1, 2, 3):
                    if minimum_placements(gc, k, False, q) is not None:
                        c_k = minimum_placements(gc, k + 1, False, q)
                        c_q = minimum_placements(gc, k, False, q + 1)
                        assert c_k is not None and c_k <= q
                        assert c_q is not None and c_q <= q + 1

    def test_monotone_win_implies_free_win(self):
        for g in small_graph_corpus(3):
            gc = closure(g)
            for k in (1, 2, 3):
                mono = minimum_placements(gc, k, True, 4)
                free = minimum_placements(gc, k, False, 4)
                if mono is not None:
                    assert free is not None and free <= mono

    def test_closure_has_same_winner(self):
        for g in small_graph_corpus(3):
            for k in (1, 2):
                for q in (1, 2, 3):
                    plain = minimum_placements(g, k, False, q)
                    closed = minimum_placements(closure(g), k, False, q)
                    assert (plain is not None and plain <= q) == (
                        closed is not None and closed <= q
                    )


class TestSanityValues:
    def test_complete_graphs(self):
        # Cops win K_n with n cops and n placements; n-1 cops lose at any
        # placement budget up to n+2.  Cross-checked against the naive
        # minimax oracle where it is affordable.
        for n in (2, 3, 4):
            gc = closure(named_graph(f"K{n}"))
            assert minimum_placements(gc, n, False, n) == n
            for q in range(1, n + 3):
                assert minimum_placements(gc, n - 1, False, q) is None


def random_host(rng: random.Random, n_lo: int, n_hi: int) -> Graph:
    """G(n, 1/2) on a random n in n_lo..n_hi, or its closure, by a coin."""
    n = rng.randint(n_lo, n_hi)
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
    return closure(g) if rng.random() < 0.5 else g


class TestDominanceCut:
    def test_more_cops_in_a_smaller_part_never_cost_more(self):
        # The copy argument behind the non-monotone cut: in the full-move
        # game, cost(Y, p') <= cost(X, p) whenever Y contains X, |Y| <= k
        # and p' lies inside p.
        rng = random.Random(11)
        compared = 0
        for _ in range(8):
            host = random_host(rng, 5, 6)
            everyone = (1 << host.n) - 1
            for k in (2, 3, 4):
                win = full_move_win(host, k, False)

                for x_mask in submasks(everyone):
                    if x_mask.bit_count() > k:
                        continue
                    for p_mask in live_parts(host, x_mask):
                        cost = full_move_cost(win, x_mask, p_mask, 6)
                        if cost is None:
                            continue
                        for extra in submasks(everyone & ~x_mask):
                            y_mask = x_mask | extra
                            if y_mask.bit_count() > k:
                                continue
                            for q_mask in live_parts(host, y_mask):
                                if q_mask & ~p_mask == 0:
                                    smaller = full_move_cost(win, y_mask, q_mask, cost)
                                    assert smaller is not None, (host, k, x_mask, y_mask)
                                    compared += 1
        assert compared > 5000

    def test_cop_move_is_first_working_fresh_move(self):
        # The cut leaves the certificates alone: over the full list of
        # fresh moves, in cop_move's order, the first move that realizes the
        # cost (or, at a lost position, the first move) is the one the
        # non-monotone cop_move picks from its shorter list.
        rng = random.Random(12)
        checked = 0
        for _ in range(14):
            host = random_host(rng, 4, 6)
            for k in (2, 3, 4):
                solver = _Solver(host, k, False)
                solver.game_cost(5)
                listed = [(x_mask, p_mask, component(host, x_mask, p_mask))
                          for x_mask in range(1 << host.n)
                          for p_mask in live_parts(host, x_mask)]
                listed = [pos for pos in listed if pos[::2] in solver._stage_lists]
                assert len(listed) == len(solver._stage_lists)
                for x_mask, p_mask, c_mask in listed:
                    full = sorted(
                        (m for m in macro_moves(host, k, False, x_mask, p_mask)
                         if m & ~x_mask),
                        key=lambda m: (bit_indices(x_mask & ~m), m & ~x_mask))
                    for left in range(1, 6):
                        c = solver.cost(x_mask, c_mask, left)
                        want = full[0]
                        if c is not None:
                            want = next(
                                m for m in full
                                if all(solver.cost(m, r, c - 1) is not None
                                       for r in _replies(host, x_mask, c_mask, m)))
                        assert solver.cop_move(x_mask, c_mask, left) == want
                        checked += 1
        assert checked > 1000


class TestMonotoneKeptSets:
    def test_kept_sets_are_those_that_keep_the_part_whole(self):
        # Every position of every host on at most 4 vertices with every set
        # of loops: the monotone solver walks exactly the kept sets under
        # which the part stays whole, in descending order, without looking
        # a part up.
        checked = 0
        for host in with_loop_sets(small_graph_corpus(4)):
            solvers = {k: _Solver(host, k, True) for k in range(1, host.n + 2)}
            for k, x_mask, c_mask, kept in monotone_kept_set_cases(host):
                assert solvers[k]._kept_sets(x_mask, c_mask) == kept, (host, k, x_mask, c_mask)
                checked += 1
        assert checked == 83_158

    def test_kept_part_is_the_held_boundary(self):
        # The monotone lemma: every host on at most 4 vertices with every
        # set of loops, every cop set x, every component c of G - x with an
        # edge and every mid inside x.  mid keeps c's part whole, by the
        # edge reference, exactly when it holds the boundary of the part,
        # which _keeps_part tests.  On a plain host a dropped cop whose
        # edges all lie in the part joins c's component and keeps it whole.
        checked = joined = 0
        for host in with_loop_sets(small_graph_corpus(4)):
            for x_mask in range(1 << host.n):
                for c_mask in components(host, x_mask):
                    part = incident_edges(host, c_mask)
                    if not part:
                        continue
                    assert part in live_parts(host, x_mask), (host, x_mask, c_mask)
                    for mid in submasks(x_mask):
                        whole = part_of(host, mid, part) == part
                        assert whole == (boundary(host, part) & ~mid == 0), (host, x_mask, mid)
                        assert whole == _keeps_part(host, mid, part)
                        checked += 1
                        if whole and component(host, mid, part) != c_mask:
                            joined += 1
        assert (checked, joined) == (78_865, 6_254)

    def test_dropped_cop_joins_the_component_on_a_plain_host(self, e1, e1c):
        # The robber at a, the cop on b.  On the plain edge ab the part is
        # {ab}, all of b's edges: lifting b joins b to the robber's
        # component and keeps the part whole, so a monotone move may lift
        # it.  On the closure the loop bb lies outside the part {ab, aa}, so
        # b is a boundary vertex, and lifting it grows the part.
        part = incident_edges(e1, 0b01)
        assert _stage(e1, 0, 0b01) == 0b11
        assert part_of(e1, 0, part) == part
        assert _keeps_part(e1, 0, part)
        assert legal_moves(e1, 1, True, 0b10, 0b01) == [0b01, 0b10]
        part = incident_edges(e1c, 0b01)
        assert part_of(e1c, 0, part) != part
        assert not _keeps_part(e1c, 0, part)
        assert legal_moves(e1c, 1, True, 0b10, 0b01) == [0b10]


class TestWinsInOne:
    def test_one_placement_is_decided_without_successors(self):
        # Every position of every host on at most 4 vertices with every set
        # of loops, k 1..n+1, both variants, captures included: win with
        # one placement left says whether some searched move leaves the
        # robber no live reply, and builds no stage list.  A capture
        # is the empty component, which is never won.
        checked = captures = 0
        for host in with_loop_sets(small_graph_corpus(4)):
            solvers = {}
            for k, monotone, x_mask, c_mask, wins in one_placement_cases(host):
                if not c_mask:
                    assert not wins
                    captures += 1
                solver = solvers.get((k, monotone))
                if solver is None:
                    # Each on its own host, so no monotone solver inherits.
                    solver = solvers[(k, monotone)] = _Solver(
                        Graph(host.n, host.edges), k, monotone)
                assert solver.win(x_mask, c_mask, 1) == wins, (host, k, monotone, x_mask, c_mask)
                checked += 1
            for solver in solvers.values():
                assert solver.expansions == len(solver.bounds)
                assert not solver._stage_lists
        assert (checked, captures) == (358_096, 191_780)


class TestWinsInTwo:
    def test_two_placements_are_decided_without_successors(self):
        # Every component position of every host on at most 4 vertices
        # with every set of loops, k 1..n+1, both variants: win with two
        # placements left says whether some searched move leaves only
        # replies that one more placement captures, and builds no stage
        # list.  Captures are outside the solver's domain.
        checked = 0
        for host in with_loop_sets(small_graph_corpus(4)):
            solvers = {}
            for k, monotone, x_mask, c_mask, wins in two_placement_cases(host, live_parts):
                solver = solvers.get((k, monotone))
                if solver is None:
                    solver = solvers[(k, monotone)] = _Solver(
                        Graph(host.n, host.edges), k, monotone)
                assert solver.win(x_mask, c_mask, 2) == wins, (host, k, monotone, x_mask, c_mask)
                checked += 1
            for solver in solvers.values():
                assert solver.expansions == len(solver.bounds)
                assert not solver._stage_lists
        assert checked == 166_316


def assert_refutes_only_losses(host) -> int:
    """Check that every position of host that _loses_in_three refutes is
    lost to the list search with three placements left, and that win
    refutes it with no stage list; return how many there are."""
    refuted = 0
    solvers = {}
    for k, monotone, x_mask, c_mask, wins in three_placement_refutations(host):
        assert not wins, (host, k, monotone, x_mask, c_mask)
        solver = solvers.get((k, monotone))
        if solver is None:
            solver = solvers[(k, monotone)] = _Solver(Graph(host.n, host.edges), k, monotone)
        assert not solver.win(x_mask, c_mask, 3)
        refuted += 1
    for solver in solvers.values():
        assert solver.expansions == len(solver.bounds)
        assert not solver._stage_lists
    return refuted


class TestLosesInThree:
    def test_refutes_only_losses_on_small_hosts(self):
        # Every component position of every host on at most 4 vertices
        # with every set of loops, k 1..n+1, both variants.
        refuted = sum(assert_refutes_only_losses(host)
                      for host in with_loop_sets(small_graph_corpus(4)))
        assert refuted == 4_288

    def test_refutes_only_losses_on_random_hosts(self):
        # Hosts on 5 to 7 vertices, plain or closure, where the heavy
        # vertices can form longer paths and larger stars.
        rng = random.Random(26)
        refuted = sum(assert_refutes_only_losses(random_host(rng, 5, 7)) for _ in range(40))
        assert refuted == 3_160


class TestSharedTables:
    def test_costs_match_unshared_hosts(self):
        # A graph and its closure fill and read one component table, one
        # segment table and, per k, one set of non-monotone stage lists.
        # Every host on at most 4 vertices with every set
        # of loops, k 1..n+1, both variants: the costs on the pair equal
        # those on fresh copies that share nothing.
        checked = 0
        for host in with_loop_sets(small_graph_corpus(4)):
            pair = (host, closure(host))
            for k in range(1, host.n + 2):
                for monotone in (False, True):
                    for h in pair:
                        cap = h.n + 1
                        fresh = Graph(h.n, h.edges)
                        assert (minimum_placements(h, k, monotone, cap)
                                == minimum_placements(fresh, k, monotone, cap)), (h, k, monotone)
                        checked += 1
        assert checked == 21_616


class TestSharedBounds:
    # The non-monotone solvers on a graph and its closure extend one bounds
    # table, by the game docstring's lemma; each monotone solver keeps its
    # own.  Every host on at most 4 vertices with every set of loops, k
    # 1..n+1, the pair solved in both orders, each host non-monotone then
    # monotone: at every position of the shared table, and at every
    # position a monotone solver bounded, each host's cost equals that on a
    # fresh copy that shares nothing.

    def test_pair_costs_match_unshared_hosts_at_every_position(self):
        # One fresh solver per edge set, variant and k, whose costs are
        # kept: the closures of a graph's loop sets have one edge set, in
        # different orders, and both orders ask for the same positions.
        fresh, fresh_costs = {}, {}
        checked = 0
        for host in with_loop_sets(small_graph_corpus(4)):
            cap = host.n + 1
            for closure_first in (False, True):
                plain = Graph(host.n, host.edges)
                pair = (closure(plain), plain) if closure_first else (plain, closure(plain))
                for k in range(1, host.n + 2):
                    solved = []
                    for h in pair:
                        for monotone in (False, True):
                            solved.append(_Solver(h, k, monotone))
                            solved[-1].game_cost(cap)
                    shared = list(plain._lost[k])
                    for solver in solved:
                        h = solver.g
                        positions = list(solver.bounds) if solver.monotone else shared
                        key = (h.n, frozenset(h.edges), k, solver.monotone)
                        if key not in fresh:
                            fresh[key] = _Solver(Graph(h.n, h.edges), k, solver.monotone)
                        for pos in positions:
                            if (key, pos) not in fresh_costs:
                                fresh_costs[key, pos] = fresh[key].cost(*pos, cap)
                            assert solver.cost(*pos, cap) == fresh_costs[key, pos], (
                                h, k, solver.monotone, pos)
                            checked += 1
        assert checked == 156_028

    @pytest.mark.parametrize("n, edges", [(4, [(0, 1), (1, 2)]), (3, [])])
    def test_edgeless_vertices_are_the_closures_own_starts(self, n, edges):
        # P3 plus an edgeless vertex, and the edgeless graph on 3 vertices.
        # The plain host's robber never starts on an edgeless vertex, and
        # the closure's may, where one cop placed on it captures: in either
        # order, the plain cost is that of a fresh plain host, the
        # closure's is max(plain, 1) unless the plain game is lost first,
        # and the closure adds to the table only those starts.
        edgeless = {(0, 1 << v) for v in range(n) if not any(v in e for e in edges)}
        for k in range(1, n + 2):
            alone = Graph(n, edges)
            want = _Solver(alone, k, False).game_cost(n + 1)
            keys = set(alone._lost[k])
            for closure_first in (False, True):
                plain = Graph(n, edges)
                shut = closure(plain)
                order = (shut, plain) if closure_first else (plain, shut)
                got = {h: _Solver(h, k, False).game_cost(n + 1) for h in order}
                assert got[plain] == want
                assert got[shut] == (None if want is None else max(want, 1))
                added = set(plain._lost[k]) - keys
                assert added == (set() if want is None else edgeless), (k, closure_first)


class TestInheritedLosses:
    # A monotone solver starts from the losses of the table that the
    # non-monotone solvers with the same k on its host extend.  Its costs
    # must be those of a monotone solver on a fresh host, at every position
    # the non-monotone solvers visited, not only at the start.

    @staticmethod
    def assert_costs_match(host, k, cap):
        lost = dict(host._lost[k])
        inherited = _Solver(host, k, True)
        fresh = _Solver(Graph(host.n, host.edges), k, True)
        assert inherited.game_cost(cap) == fresh.game_cost(cap)
        for x_mask, c_mask in lost:
            assert (inherited.cost(x_mask, c_mask, cap)
                    == fresh.cost(x_mask, c_mask, cap)), (host, k, x_mask, c_mask)
        return len(lost)

    def test_after_a_full_solve(self):
        rng = random.Random(13)
        positions = 0
        for _ in range(16):
            host = random_host(rng, 4, 6)
            for k in (1, 2, 3, 4):
                _Solver(host, k, False).game_cost(6)
                positions += self.assert_costs_match(host, k, 6)
        assert positions > 500

    def test_after_a_budget_error_or_a_smaller_cap(self, monkeypatch):
        rng = random.Random(14)
        cut_short = 0
        for _ in range(8):
            host = random_host(rng, 5, 6)
            for k in (2, 3):
                full = _Solver(Graph(host.n, host.edges), k, False)
                full.game_cost(6)
                if full.expansions >= 2:
                    with monkeypatch.context() as patched:
                        patched.setattr(game, "EXPANSION_BUDGET", full.expansions // 2)
                        with pytest.raises(BudgetExceededError):
                            _Solver(host, k, False).game_cost(6)
                    self.assert_costs_match(host, k, 6)
                    cut_short += 1
                _Solver(host, k, False).game_cost(2)
                self.assert_costs_match(host, k, 6)
        assert cut_short > 8

    def test_wins_are_proved_afresh(self):
        # A non-monotone table that claims wins cheaper than the truth, as
        # a counterexample to the equivalence would, does not move the
        # monotone costs: only its losses are read.
        rng = random.Random(15)
        positions = 0
        for _ in range(24):
            host = random_host(rng, 4, 6)
            for k in (2, 3, 4):
                _Solver(host, k, False).game_cost(6)
                for entry in host._lost[k].values():
                    entry[1] = entry[0] + 1
                positions += self.assert_costs_match(host, k, 6)
        assert positions > 500

    def test_only_losses_are_inherited(self, k3):
        host = closure(k3)
        _Solver(host, 3, False).game_cost(5)
        monotone = _Solver(host, 3, True)
        assert monotone.bounds
        assert all(e[0] > 0 and e[1] is None for e in monotone.bounds.values())
        assert _Solver(host, 2, True).bounds == {}


class TestStageMemo:
    # A stage, the kept cops mid and the stage set S of a cop move, has
    # one value per budget whatever position lifted to it: the OR over
    # the vertices v outside mid of the AND, over the components r of
    # S - v (S itself when v lies outside S), of winning from (mid | v, r)
    # with one placement fewer.  Each solver's stage bounds must agree
    # with that value over the full-move oracle, and so must the costs of
    # the positions that read them.

    @staticmethod
    def assert_stages_match_the_oracle(host, k, monotone) -> tuple[int, int]:
        """Check the stage bounds and initial costs of a solver for (k,
        monotone) on host; return how many loss and win bounds held."""
        solver = _Solver(host, k, monotone)
        solver.game_cost(6)
        win = full_move_win(host, k, monotone)

        def stage_wins(mid, s, b):
            part = incident_edges(host, s)
            return any(all(win(mid | 1 << v, q, b - 1)
                           for q in live_parts(host, mid | 1 << v) if not q & ~part)
                       for v in host.vertices if not mid >> v & 1)

        losses = wins = 0
        for (mid, s), (lost, won) in solver._stage_bounds.items():
            if lost:
                assert not stage_wins(mid, s, lost), (host, k, monotone, mid, s)
                losses += 1
            if won is not None:
                assert stage_wins(mid, s, won), (host, k, monotone, mid, s)
                wins += 1
        costs = [full_move_cost(win, 0, incident_edges(host, c), 6)
                 for c in initial_components(host)]
        for c_mask, cost in zip(initial_components(host), costs):
            assert solver.cost(0, c_mask, 6) == cost, (host, k, monotone, c_mask)
        assert solver.game_cost(6) == (None if None in costs else max(costs, default=0))
        return losses, wins

    def test_stage_bounds_match_the_oracle(self):
        # Every host on at most 4 vertices with every set of loops and the
        # closures of all graphs on 5 vertices, k 1..4, both variants; each
        # monotone solver inherits the losses of the non-monotone one.
        hosts = with_loop_sets(small_graph_corpus(4)) + [closure(g) for g in all_graphs(5)]
        checked = [self.assert_stages_match_the_oracle(host, k, monotone)
                   for host in hosts for k in range(1, 5) for monotone in (False, True)]
        losses, wins = map(sum, zip(*checked))
        assert losses > 5_000 and wins > 5_000

    def test_positions_lifting_different_cops_share_a_stage(self):
        # The robber on the path 3-4-5-6, two cops off it: from {0, 2} and
        # from {1, 2} the first kept set, dropping the lower cop, is {2}
        # with the stage set the path itself.  Once the first position
        # has decided that stage, the second reads it and searches nothing.
        host = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        c_mask = 0b1111000
        solver = _Solver(host, 2, False)
        first, second = 0b101, 0b110
        stage = (0b100, c_mask)
        assert solver._stages(first, c_mask)[0] == solver._stages(second, c_mask)[0] == stage
        win = full_move_win(host, 2, False)
        part = incident_edges(host, c_mask)
        assert solver.cost(first, c_mask, 6) == full_move_cost(win, first, part, 6) == 3
        assert solver._stage_bounds[stage] == [0, 3]
        known, expansions = len(solver._stage_bounds), solver.expansions
        assert solver.cost(second, c_mask, 6) == full_move_cost(win, second, part, 6) == 3
        assert (len(solver._stage_bounds), solver.expansions) == (known, expansions + 1)


class TestSolverWork:
    def test_cached_successors_follow_the_rules(self):
        # The successors are the fresh legal moves (those that place a
        # vertex outside x), kept-cop sets from x downward and then placed
        # vertices ascending, each with its capture-free responses.  In the
        # non-monotone variant only the undominated ones are kept: those
        # that keep min(|x|, k - 1) cops.  Both variants and every k solve
        # on one host, so the segment table entries built by one solver
        # are read by the others.  The lists are asked for at every
        # position the solver has a bound for, since a position expanded
        # only with one or two placements left builds none.  Every such
        # position has a component part under its cop set, the solver's
        # domain: none is a capture.
        rng = random.Random(5)
        checked = 0
        for _ in range(12):
            n = rng.randint(2, 5)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
            for host in (g, closure(g)):
                for k in (1, 2, 3):
                    for monotone in (False, True):
                        solver = _Solver(host, k, monotone)
                        solver.game_cost(4)
                        for x_mask, c_mask in list(solver.bounds):
                            parts = {component(host, x_mask, p): p
                                     for p in live_parts(host, x_mask)}
                            p_mask = parts[c_mask]
                            succ = solver._successors(x_mask, c_mask)
                            kept = min(x_mask.bit_count(), k - 1)
                            fresh = [m for m in macro_moves(host, k, monotone, x_mask, p_mask)
                                     if m & ~x_mask and (
                                         monotone or (m & x_mask).bit_count() == kept)]
                            fresh.sort(key=lambda m: (-(m & x_mask), m & ~x_mask))
                            expected = [
                                (m, tuple(component(host, m, q)
                                          for q in live_replies(host, x_mask, p_mask, m)))
                                for m in fresh]
                            assert succ == expected
                            checked += 1
        assert checked > 500

    def test_search_matches_full_move_oracle(self):
        # The solver leaves out the re-placements, the pass included; a
        # minimax over every legal move must find the same costs.
        rng = random.Random(8)
        costs = set()
        for _ in range(25):
            n = rng.randint(5, 6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
            for host in (g, closure(g)):
                for k in (1, 2, 3, 4):
                    for monotone in (False, True):
                        cost = minimum_placements(host, k, monotone, 6)
                        assert cost == full_move_min_placements(host, k, monotone, 6), (
                            host, k, monotone)
                        costs.add(cost)
        assert None in costs and len(costs) > 2

    # (expansions, positions, stages) of _Solver.game_cost(7) per graph,
    # for the plain graph then its closure, k = 2, 3, 4, non-monotone then
    # monotone on the same host; the monotone solver counts the losses it
    # inherits from the non-monotone table as positions, and stages counts
    # the (kept set, stage set) pairs the solver bounded.  Recorded when
    # each stage was first decided once for every position that lifts to
    # it, its segment walking the lifted cops' re-placements too, and when
    # the closure's non-monotone solver first extended the plain host's
    # table: it counts the plain positions, and expands only the starts of
    # the graph's edgeless vertices (G6c has one, G7a two).  Equal counts
    # mean neither the search order nor the memo moved.
    GOLDEN_WORK = {
        "P5": [(8, 6, 1), (4, 6, 1), (6, 4, 1), (3, 4, 1), (6, 4, 1), (3, 4, 1),
               (0, 6, 0), (4, 6, 1), (0, 4, 0), (3, 4, 1), (0, 4, 0), (3, 4, 1)],
        "C5": [(67, 16, 6), (0, 16, 0), (11, 7, 2), (3, 7, 2), (11, 7, 2), (3, 7, 2),
               (0, 16, 0), (0, 16, 0), (0, 7, 0), (3, 7, 2), (0, 7, 0), (3, 7, 2)],
        "K4": [(47, 11, 5), (0, 11, 0), (53, 15, 11), (0, 15, 0), (10, 6, 2), (3, 6, 2),
               (0, 11, 0), (0, 11, 0), (0, 15, 0), (0, 15, 0), (0, 6, 0), (3, 6, 2)],
        "K2,3": [(67, 16, 6), (0, 16, 0), (4, 2, 1), (2, 2, 1), (4, 2, 1), (2, 2, 1),
                 (0, 16, 0), (0, 16, 0), (0, 2, 0), (2, 2, 1), (0, 2, 0), (2, 2, 1)],
        "GRID2x3": [(90, 22, 7), (0, 22, 0), (22, 17, 3), (5, 17, 2), (13, 9, 2), (3, 9, 2),
                    (0, 22, 0), (0, 22, 0), (0, 17, 0), (5, 17, 2), (0, 9, 0), (3, 9, 2)],
        "G6a": [(85, 22, 7), (0, 22, 0), (136, 42, 22), (0, 42, 0), (18, 13, 3), (3, 13, 2),
                (0, 22, 0), (0, 22, 0), (0, 42, 0), (0, 42, 0), (0, 13, 0), (3, 13, 2)],
        "G6b": [(89, 22, 7), (0, 22, 0), (14, 11, 2), (4, 11, 2), (19, 14, 3), (4, 14, 2),
                (0, 22, 0), (0, 22, 0), (0, 11, 0), (4, 11, 2), (0, 14, 0), (4, 14, 2)],
        "G6c": [(81, 22, 7), (0, 22, 0), (136, 42, 22), (0, 42, 0), (11, 8, 2), (3, 8, 2),
                (0, 22, 0), (0, 22, 0), (0, 42, 0), (0, 42, 0), (1, 9, 0), (4, 9, 2)],
        "G7a": [(125, 35, 9), (0, 29, 0), (6, 4, 1), (2, 4, 1), (6, 4, 1), (2, 4, 1),
                (0, 35, 0), (0, 29, 0), (2, 6, 0), (4, 6, 1), (2, 6, 0), (4, 6, 1)],
        "G7b": [(108, 35, 9), (0, 29, 0), (16, 13, 2), (5, 13, 2), (16, 13, 2), (5, 13, 2),
                (0, 35, 0), (0, 29, 0), (0, 13, 0), (5, 13, 2), (0, 13, 0), (5, 13, 2)],
    }

    # (expansions, positions, stages) of the monotone
    # _Solver.game_cost(7) on a host no other solver has used, in the
    # GOLDEN_WORK order: the monotone search on its own, recorded with
    # GOLDEN_WORK.
    GOLDEN_FRESH_MONOTONE_WORK = {
        "P5": [(8, 6, 1), (6, 4, 1), (6, 4, 1), (8, 6, 1), (6, 4, 1), (6, 4, 1)],
        "C5": [(57, 16, 6), (11, 7, 2), (11, 7, 2), (57, 16, 6), (11, 7, 2), (11, 7, 2)],
        "K4": [(41, 11, 5), (53, 15, 11), (10, 6, 2), (41, 11, 5), (53, 15, 11), (10, 6, 2)],
        "K2,3": [(72, 16, 6), (4, 2, 1), (4, 2, 1), (64, 16, 6), (4, 2, 1), (4, 2, 1)],
        "GRID2x3": [(86, 22, 7), (22, 17, 3), (13, 9, 2), (76, 22, 7), (22, 17, 3), (13, 9, 2)],
        "G6a": [(81, 22, 7), (136, 42, 22), (18, 13, 3), (76, 22, 7), (126, 42, 22), (18, 13, 3)],
        "G6b": [(86, 22, 7), (14, 11, 2), (19, 14, 3), (76, 22, 7), (14, 11, 2), (19, 14, 3)],
        "G6c": [(76, 22, 7), (126, 42, 22), (11, 8, 2), (76, 22, 7), (126, 42, 22), (12, 9, 2)],
        "G7a": [(131, 35, 8), (6, 4, 1), (6, 4, 1), (122, 35, 9), (8, 6, 1), (8, 6, 1)],
        "G7b": [(104, 35, 9), (16, 13, 2), (16, 13, 2), (104, 35, 9), (16, 13, 2), (16, 13, 2)],
    }

    @staticmethod
    def golden_corpus() -> dict[str, Graph]:
        corpus = {name: named_graph(name) for name in ("P5", "C5", "K4", "K2,3", "GRID2x3")}
        rng = random.Random(7)
        for name, n, p in (("G6a", 6, 0.5), ("G6b", 6, 0.5), ("G6c", 6, 0.5),
                           ("G7a", 7, 0.4), ("G7b", 7, 0.4)):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            corpus[name] = Graph(n, [e for e in pairs if rng.random() < p])
        return corpus

    def test_search_work_is_pinned(self):
        for name, g in self.golden_corpus().items():
            work = []
            for host in (g, closure(g)):
                for k in (2, 3, 4):
                    for monotone in (False, True):
                        solver = _Solver(host, k, monotone)
                        solver.game_cost(7)
                        work.append((solver.expansions, len(solver.bounds),
                                     len(solver._stage_bounds)))
            assert work == self.GOLDEN_WORK[name], name

    def test_fresh_monotone_search_work_is_pinned(self):
        for name, g in self.golden_corpus().items():
            work = []
            for host in (g, closure(g)):
                for k in (2, 3, 4):
                    solver = _Solver(Graph(host.n, host.edges), k, True)
                    solver.game_cost(7)
                    work.append((solver.expansions, len(solver.bounds),
                                 len(solver._stage_bounds)))
            assert work == self.GOLDEN_FRESH_MONOTONE_WORK[name], name
