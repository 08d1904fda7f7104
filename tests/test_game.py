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
                listed = [pos for pos in listed if pos[::2] in solver._succ_cache]
                assert len(listed) == len(solver._succ_cache)
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
        # robber no live reply, and builds no successor list.  A capture
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
                assert not solver._succ_cache
        assert (checked, captures) == (358_096, 191_780)


class TestWinsInTwo:
    def test_two_placements_are_decided_without_successors(self):
        # Every component position of every host on at most 4 vertices
        # with every set of loops, k 1..n+1, both variants: win with two
        # placements left says whether some searched move leaves only
        # replies that one more placement captures, and builds no
        # successor list.  Captures are outside the solver's domain.
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
                assert not solver._succ_cache
        assert checked == 166_316


def assert_refutes_only_losses(host) -> int:
    """Check that every position of host that _loses_in_three refutes is
    lost to the list search with three placements left, and that win
    refutes it with no successor list; return how many there are."""
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
        assert not solver._succ_cache
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
        # response table and, per k, one set of non-monotone successor
        # lists.  Every host on at most 4 vertices with every set
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


class TestInheritedLosses:
    # A monotone solver starts from the losses of the latest non-monotone
    # solver with the same k on its host.  Its costs must be those of a
    # monotone solver on a fresh host, at every position the non-monotone
    # solver visited, not only at the start.

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


class TestSolverWork:
    def test_cached_successors_follow_the_rules(self):
        # The successors are the fresh legal moves (those that place a
        # vertex outside x), kept-cop sets from x downward and then placed
        # vertices ascending, each with its capture-free responses.  In the
        # non-monotone variant only the undominated ones are kept: those
        # that keep min(|x|, k - 1) cops.  Both variants and every k solve
        # on one host, so the response table entries built by one solver
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

    # (expansions, positions) of _Solver.game_cost(7) per graph, for the
    # plain graph then its closure, k = 2, 3, 4, non-monotone then
    # monotone on the same host; the monotone solver counts the losses it
    # inherits from the non-monotone one as positions.  Recorded when
    # positions with three placements left were first refuted from masks
    # (_loses_in_three), which visits none of their children.  Equal
    # counts mean the search order did not move.
    GOLDEN_WORK = {
        "P5": [(8, 6), (4, 6), (6, 4), (3, 4), (6, 4), (3, 4),
               (8, 6), (4, 6), (6, 4), (3, 4), (6, 4), (3, 4)],
        "C5": [(66, 16), (0, 16), (11, 7), (3, 7), (11, 7), (3, 7),
               (66, 16), (0, 16), (11, 7), (3, 7), (11, 7), (3, 7)],
        "K4": [(46, 11), (0, 11), (53, 15), (0, 15), (10, 6), (3, 6),
               (46, 11), (0, 11), (53, 15), (0, 15), (10, 6), (3, 6)],
        "K2,3": [(67, 16), (0, 16), (4, 2), (2, 2), (4, 2), (2, 2),
                 (67, 16), (0, 16), (4, 2), (2, 2), (4, 2), (2, 2)],
        "GRID2x3": [(88, 22), (0, 22), (22, 17), (5, 17), (13, 9), (3, 9),
                    (88, 22), (0, 22), (22, 17), (5, 17), (13, 9), (3, 9)],
        "G6a": [(84, 22), (0, 22), (136, 42), (0, 42), (18, 13), (3, 13),
                (84, 22), (0, 22), (136, 42), (0, 42), (18, 13), (3, 13)],
        "G6b": [(87, 22), (0, 22), (14, 11), (4, 11), (19, 14), (4, 14),
                (87, 22), (0, 22), (14, 11), (4, 11), (19, 14), (4, 14)],
        "G6c": [(80, 22), (0, 22), (135, 42), (0, 42), (11, 8), (3, 8),
                (80, 22), (0, 22), (135, 42), (0, 42), (12, 9), (4, 9)],
        "G7a": [(125, 35), (0, 29), (6, 4), (2, 4), (6, 4), (2, 4),
                (125, 35), (0, 29), (8, 6), (4, 6), (8, 6), (4, 6)],
        "G7b": [(107, 35), (0, 29), (16, 13), (5, 13), (16, 13), (5, 13),
                (107, 35), (0, 29), (16, 13), (5, 13), (16, 13), (5, 13)],
    }

    # (expansions, positions) of the monotone _Solver.game_cost(7) on a
    # host no other solver has used, in the GOLDEN_WORK order: the
    # monotone search on its own, recorded with GOLDEN_WORK.
    GOLDEN_FRESH_MONOTONE_WORK = {
        "P5": [(8, 6), (6, 4), (6, 4), (8, 6), (6, 4), (6, 4)],
        "C5": [(57, 16), (11, 7), (11, 7), (57, 16), (11, 7), (11, 7)],
        "K4": [(41, 11), (53, 15), (10, 6), (41, 11), (53, 15), (10, 6)],
        "K2,3": [(70, 16), (4, 2), (4, 2), (64, 16), (4, 2), (4, 2)],
        "GRID2x3": [(84, 22), (22, 17), (13, 9), (76, 22), (22, 17), (13, 9)],
        "G6a": [(80, 22), (134, 42), (18, 13), (76, 22), (126, 42), (18, 13)],
        "G6b": [(84, 22), (14, 11), (19, 14), (76, 22), (14, 11), (19, 14)],
        "G6c": [(76, 22), (126, 42), (11, 8), (76, 22), (126, 42), (12, 9)],
        "G7a": [(130, 35), (6, 4), (6, 4), (122, 35), (8, 6), (8, 6)],
        "G7b": [(104, 35), (16, 13), (16, 13), (104, 35), (16, 13), (16, 13)],
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
                        work.append((solver.expansions, len(solver.bounds)))
            assert work == self.GOLDEN_WORK[name], name

    def test_fresh_monotone_search_work_is_pinned(self):
        for name, g in self.golden_corpus().items():
            work = []
            for host in (g, closure(g)):
                for k in (2, 3, 4):
                    solver = _Solver(Graph(host.n, host.edges), k, True)
                    solver.game_cost(7)
                    work.append((solver.expansions, len(solver.bounds)))
            assert work == self.GOLDEN_FRESH_MONOTONE_WORK[name], name
