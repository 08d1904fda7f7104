import functools
import itertools
import random
from collections import Counter

import pytest

from bdtw.corpus import all_graphs, named_graph
from bdtw.errors import BudgetExceededError, ConsistencyError
from bdtw.game import GameConfig, minimum_placements, solve
from bdtw.graphs import Graph, boundary, closure, dumps_graph
from bdtw import monotonize, pre_tree
from bdtw.monotonize import (
    ExtensionChoice,
    StepState,
    apply_step,
    check_branching_depth_bound,
    choose_extensions,
    iterate_steps,
    monotonize_pipeline,
    run,
    verify_step,
)
from bdtw.pre_tree import (
    PreTreeDecomposition,
    dumps_ptd,
    from_tree_decomposition,
    is_exact,
    is_exact_edge,
    loads_ptd,
    local_blocks,
    local_boundary,
    ptd_depth,
    ptd_width,
    validate_ptd,
)
from bdtw.strategy_tree import build
from bdtw.tree_decomp import td_depth, td_width, validate_td
from oracles import change_oracle, extension_oracle, validate_ptd_oracle, verify_step_oracle
import test_integration
from test_strategy_tree import solved_tree
from test_tree_decomp import elimination_td


def strategy_trees(_rng: random.Random):
    """The strategy trees of FUZZED_CORPUS, unfuzzed and fuzzed with slack 2."""
    for name, k, q, fuzz_seed in FUZZED_CORPUS:
        for slack in (0, 2):
            yield solved_tree(named_graph(name), k, q, fuzz=slack, seed=fuzz_seed)[0].ptd


def elimination_ptds(rng: random.Random):
    """from_tree_decomposition of 60 random padded decompositions
    (test_tree_decomp.elimination_td)."""
    for _ in range(60):
        yield from_tree_decomposition(elimination_td(rng))


def valid_mutants(seed: int, draws: int, source=strategy_trees):
    """The mutants validate_ptd accepts among `draws` per pre-decomposition
    of the source, which draws from the same seeded generator.  Each
    toggles 1-4 bag vertices or cone edges, so it is a valid
    pre-decomposition that is in general no strategy tree."""
    rng = random.Random(seed)
    for ptd in source(rng):
        n, m = ptd.host.n, len(ptd.host.edges)
        keys = sorted(ptd.cones)
        for _ in range(draws):
            bags, cones = list(ptd.bags), dict(ptd.cones)
            for _ in range(rng.randint(1, 4)):
                if rng.randrange(2):
                    bags[rng.randrange(len(bags))] ^= 1 << rng.randrange(n)
                else:
                    cones[rng.choice(keys)] ^= 1 << rng.randrange(m)
            mutant = PreTreeDecomposition(ptd.tree, ptd.host, tuple(bags), cones)
            if validate_ptd(mutant).ok:
                yield mutant


def check_valid_mutants(seeds, draws: int, source=strategy_trees) -> int:
    """Exactify every valid mutant of the seeds, checked; returns how many
    of them have a non-exact tree edge."""
    kept = nonexact = 0
    for seed in seeds:
        for mutant in valid_mutants(seed, draws, source):
            try:
                exact = run(mutant, verify=True)
            except ConsistencyError as exc:
                pytest.fail(f"seed {seed}, mutant\n{dumps_ptd(mutant)}{exc}")
            assert is_exact(exact)
            assert ptd_width(exact) <= ptd_width(mutant)
            assert ptd_depth(exact) <= ptd_depth(mutant)
            plain = run(mutant)
            assert (exact.bags, exact.cones) == (plain.bags, plain.cones)
            kept += 1
            nonexact += not is_exact(mutant)
    assert kept
    return nonexact


def assignment_oracle(state, node):
    """Brute-force optimum over all free-edge assignments: minimum boundary,
    then fewest moved edges.  Returns (boundary, moved)."""
    g = state.ptd.host
    tree = state.ptd.tree
    cones = state.ptd.cones
    children = tree.children[node]
    full = g.full_mask
    m_free = [full & ~(cones[(node, c)] | cones[(c, node)]) for c in children]
    free = sorted(g.edge_ids(sum_masks(m_free)))
    neighbors = tree.neighbors(node)
    blocks0 = [cones[(node, u)] for u in neighbors]
    child_pos = {c: neighbors.index(c) for c in children}
    best = None
    option_lists = [
        [None] + [j for j, m in enumerate(m_free) if m >> e & 1] for e in free
    ]
    for combo in itertools.product(*option_lists):
        blocks = list(blocks0)
        moved = 0
        for e, j in zip(free, combo):
            if j is None:
                continue
            moved += 1
            for i in range(len(blocks)):
                blocks[i] &= ~(1 << e)
            blocks[child_pos[children[j]]] |= 1 << e
        delta = 0
        for b in blocks:
            delta |= boundary(g, b)
        key = (delta.bit_count(), moved)
        if best is None or key < best:
            best = key
    return best


def sum_masks(masks):
    out = 0
    for m in masks:
        out |= m
    return out


# Fuzzed at slack 0-4.  C6 at seed 3 and GRID2x3 at seed 2 change bags 3
# levels above descendants in scope (test_runs_change_deep_subtrees).
FUZZED_CORPUS = [
    ("E1", 2, 2, 3), ("P3", 2, 2, 5), ("P4", 2, 3, 1),
    ("K3", 3, 3, 1), ("C4", 3, 3, 2), ("GRID2x3", 3, 4, 1),
    ("C6", 3, 4, 3), ("GRID2x3", 3, 4, 2),
]


class TestBfsOrder:
    def test_single_node(self):
        g = closure(Graph(1, []))
        st, _, _ = solved_tree(Graph(1, []), 1, 1)
        assert st.ptd.tree.bfs_nodes()[0] == 0

    def test_level_order_with_ties(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        assert st.ptd.tree.bfs_nodes() == [0, 1, 2, 3, 4, 5]


class TestChooseExtensions:
    def test_no_free_edges_forced_empty(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        state = StepState(st.ptd, ())
        choice = choose_extensions(state, 0)
        assert choice.f_union == 0

    def test_exact_node_prefers_empty(self):
        # A monotone (exact) strategy tree has no free edges anywhere, so
        # the choice is empty at every internal node, and the step sets its
        # bag to the blocks' boundary.  P3 at k = 2, q = 2, then every
        # graph with n <= 4, closure, k 1-3, the least winning monotone q.
        cases = [(closure(named_graph("P3")), 2, 2)]
        for n in range(1, 5):
            for g in all_graphs(n):
                gc = closure(g)
                for k in range(1, 4):
                    q = minimum_placements(gc, k, True, n)
                    if q is not None:
                        cases.append((gc, k, q))
        nodes = split = 0
        for g, k, q in cases:
            st = build(g, solve(g, GameConfig(k, q, monotone=True)).strategy, GameConfig(k, q))
            start = StepState(st.ptd, ())
            for node, before, after, choice in iterate_steps(st.ptd):
                empty = (0,) * len(st.ptd.tree.children[node])
                assert (choice.f, choice.f_union, choice.f_star) == (empty, 0, empty)
                assert choice == choose_extensions(start, node)
                size = after.ptd.bags[node].bit_count()
                assert (choice, size) == extension_oracle(before, node), (g, k, node)
                assert size == local_boundary(before.ptd, node).bit_count()
                nodes += 1
                split += size > 0
        assert (nodes, split) == (599, 384)

    def test_matches_oracle_on_fuzzed_trees(self):
        # Small trees against the brute force as well; 7-9-vertex closures
        # at slack 0-8 against the edge search only.
        cases = [(named_graph(name), k, q, 1, seed, True)
                 for name, k, q, seed in [("E1", 2, 2, 5), ("P3", 2, 2, 5), ("K3", 3, 3, 1)]]
        rng = random.Random(5)
        for slack, n in itertools.product(range(9), (7, 8, 9)):
            g = Graph(n, rng.sample(list(itertools.combinations(range(n), 2)), 2 * n))
            k, q = next((k, q) for k in (3, 4, 5)
                        if (q := minimum_placements(closure(g), k, False, 7)))
            cases.append((g, k, q, slack, slack, False))
        for g, k, q, slack, seed, brute in cases:
            st, _, _ = solved_tree(g, k, q, fuzz=slack, seed=seed)
            for node, before, after, choice in iterate_steps(st.ptd):
                size = after.ptd.bags[node].bit_count()
                assert (choice, size) == extension_oracle(before, node), (g, k, slack, node)
                if brute:
                    got_moved = bin(choice.f_union).count("1")
                    assert (size, got_moved) == assignment_oracle(before, node)

    def test_stay_beats_moving_on_ties(self, e1c):
        # One unit of freedom where moving the free edge does not improve
        # the boundary: the tie-break on moved-edge count must keep it put,
        # and the leftover mechanism alone restores exactness.
        from bdtw.pre_tree import PreTreeDecomposition
        from bdtw.tree_decomp import RootedTree

        full = e1c.full_mask  # edges ab=0, aa=1, bb=2
        tree = RootedTree([0, 0, 1, 1, 1])
        cones = {
            (0, 1): full, (1, 0): 0,
            (1, 2): 0b001, (2, 1): full & ~0b001,
            (1, 3): 0b010, (3, 1): full & ~0b010,
            (1, 4): 0b100, (4, 1): 0b001,  # aa is missing from both sides
        }
        bags = (
            0, 0b11, 0b11,
            0b1, 0b11,
        )
        ptd = PreTreeDecomposition(tree, e1c, bags, cones)
        assert validate_ptd(ptd).ok
        state = StepState(ptd, ())
        state = apply_step(state, 0, choose_extensions(state, 0))
        choice = choose_extensions(state, 1)
        assert choice.f_union == 0
        assert apply_step(state, 1, choice).ptd.bags[1].bit_count() == 2
        exact = run(ptd)
        assert is_exact(exact)
        assert exact.cone(4, 1) == full & ~0b100

    def test_equal_moves_prefer_the_least_assignment_vector(self):
        # Path u-v-w; at node 1, uv lies in child 2's block and is free for
        # child 3, vw the other way round.  Both children are internal, so
        # either may take a free edge.  Either block for all of u, v, w
        # gives boundary 0 with one move; keeping uv (the first edge) in
        # place is the lexicographically least assignment.
        from bdtw.tree_decomp import RootedTree

        g = Graph(3, [(0, 1), (1, 2)])
        tree = RootedTree([0, 0, 1, 1, 2, 3, 2, 3])
        cones = {(0, 1): 0b11, (1, 0): 0, (1, 2): 0b01, (2, 1): 0, (1, 3): 0b10, (3, 1): 0,
                 (2, 4): 0b01, (4, 2): 0b10, (2, 6): 0b10, (6, 2): 0b01,
                 (3, 5): 0b01, (5, 3): 0b10, (3, 7): 0b10, (7, 3): 0b01}
        bags = (0,) + (0b10,) * 7
        ptd = PreTreeDecomposition(tree, g, bags, cones)
        assert validate_ptd(ptd).ok
        state = StepState(ptd, ())
        state = apply_step(state, 0, choose_extensions(state, 0))
        choice = choose_extensions(state, 1)
        size = apply_step(state, 1, choice).ptd.bags[1].bit_count()
        assert (choice.f, size) == ((0b10, 0), 0)
        assert (choice, size) == extension_oracle(state, 1)

    def test_leaf_child_is_never_a_target(self, tmp_path):
        # The same node 1 with leaf children: moving vw into leaf 2, which
        # already holds uv, would give it a two-edge cone (PT2).  The free
        # edges go up the leaves' cones instead, and the boundary stays
        # within the input bag.
        from bdtw.cli import main
        from bdtw.pre_tree import dumps_ptd
        from bdtw.tree_decomp import RootedTree

        g = Graph(3, [(0, 1), (1, 2)])
        tree = RootedTree([0, 0, 1, 1])
        cones = {(0, 1): 0b11, (1, 0): 0, (1, 2): 0b01, (2, 1): 0, (1, 3): 0b10, (3, 1): 0}
        bags = (0, 0b10, 0b11, 0b110)
        ptd = PreTreeDecomposition(tree, g, bags, cones)
        assert validate_ptd(ptd).ok
        state = StepState(ptd, ())
        state = apply_step(state, 0, choose_extensions(state, 0))
        choice = choose_extensions(state, 1)
        size = apply_step(state, 1, choice).ptd.bags[1].bit_count()
        assert (choice.f, choice.f_star, size) == ((0, 0), (0b10, 0b01), 1)
        assert (choice, size) == extension_oracle(state, 1)
        exact = run(ptd, verify=True)
        assert is_exact(exact)
        assert ptd_width(exact) <= ptd_width(ptd)
        assert ptd_depth(exact) <= ptd_depth(ptd)
        path = tmp_path / "leaf.ptd"
        path.write_text(dumps_ptd(ptd))
        assert main(["monotonize", str(path), "--verify"]) == 0

    def test_nonexact_node_boundary_within_bag(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2, fuzz=1, seed=3)
        for node, before, after, _choice in iterate_steps(st.ptd):
            assert after.ptd.bags[node].bit_count() <= before.ptd.bags[node].bit_count()

    def test_more_than_twenty_free_edges(self):
        # Node 7 and four others have 21 free edges.  The pipeline must
        # complete, and each of their choices must equal the edge search's.
        g = Graph(9, [(0, 5), (0, 6), (0, 8), (1, 3), (1, 5), (1, 8), (2, 4), (2, 6),
                      (3, 4), (3, 7), (4, 5), (4, 8), (5, 7)])
        r = monotonize_pipeline(g, 4, 7, fuzz_slack=8, seed=2, verify=True)
        assert r.member
        assert td_width(r.td) <= 3
        assert td_depth(r.td) <= r.placements_bound
        st = r.strategy_tree
        crowded = []
        for node, before, after, choice in iterate_steps(st.ptd):
            cones = before.ptd.cones
            free = sum_masks(st.ptd.host.full_mask & ~(cones[(node, c)] | cones[(c, node)])
                             for c in st.ptd.tree.children[node])
            if bin(free).count("1") > 20:
                crowded.append(node)
                size = after.ptd.bags[node].bit_count()
                assert (choice, size) == extension_oracle(before, node)
        assert 7 in crowded


class TestApplySteps:
    def test_steps_are_the_internal_nodes_in_bfs_order(self):
        # A leaf has no child tree-edge to reassign, so it is no step; each
        # step starts from the state the one before it made.
        for name, k, q, seed, fuzz in [("E1", 2, 2, 3, 0), ("P3", 2, 2, 5, 1), ("C4", 3, 3, 2, 2)]:
            st, _, _ = solved_tree(named_graph(name), k, q, fuzz=fuzz, seed=seed)
            tree = st.ptd.tree
            internal = [t for t in tree.bfs_nodes() if tree.children[t]]
            assert len(internal) < tree.size
            steps = list(iterate_steps(st.ptd))
            assert [node for node, *_ in steps] == internal
            assert steps[0][1].ptd is st.ptd and steps[0][1].processed == ()
            for i, (_node, before, after, _choice) in enumerate(steps):
                assert i == 0 or before is steps[i - 1][2]
                assert after.processed == tuple(internal[:i + 1])

    def test_scope_bags_are_local_boundaries(self):
        # What lets a leaf be no step: a node's bag is set when it enters
        # the scope, at its parent's step, and stays its local boundary.
        # Strategy trees' bags already are; padded with every vertex, each
        # non-root bag must be set by a step.  Either way run's result is
        # exact and no wider or deeper than its input, and every step
        # passes verify_step.
        for (name, k, q, seed), slack in itertools.product(FUZZED_CORPUS, range(5)):
            st, _, _ = solved_tree(named_graph(name), k, q, fuzz=slack, seed=seed)
            ptd = st.ptd
            every = (1 << ptd.host.n) - 1
            padded = PreTreeDecomposition(
                ptd.tree, ptd.host,
                tuple(0 if t == ptd.tree.root else every for t in ptd.tree.nodes), ptd.cones)
            for start in (ptd, padded):
                for _node, _before, after, _choice in iterate_steps(start):
                    assert all(after.ptd.bags[t] == local_boundary(after.ptd, t)
                               for t in after.scope), (name, slack)
                exact = run(start, verify=True)
                assert is_exact(exact), (name, slack)
                assert ptd_width(exact) <= ptd_width(start), (name, slack)
                assert ptd_depth(exact) <= ptd_depth(start), (name, slack)

    def test_root_step_normalizes_only(self):
        st, _, _ = solved_tree(named_graph("P3"), 2, 2)
        node, before, after, choice = next(iter(iterate_steps(st.ptd)))
        assert node == st.ptd.tree.root
        assert choice.f_union == 0
        assert after.ptd.cones == before.ptd.cones
        assert after.ptd.bags[node] == 0

    def test_children_edges_exact_after_step(self):
        st, _, _ = solved_tree(named_graph("P3"), 2, 2, fuzz=1, seed=5)
        for node, before, after, choice in iterate_steps(st.ptd):
            ptd = after.ptd
            for c in st.ptd.tree.children[node]:
                assert is_exact_edge(ptd, node, c)

    def test_axiom_violation_raises(self):
        # A leftover complement that overlaps the child's down-cone makes
        # the two opposite cones of that tree edge share edges (PT4).
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        tree = st.ptd.tree
        state = StepState(st.ptd, ())
        state = apply_step(state, tree.root, choose_extensions(state, tree.root))
        node = next(t for t in tree.bfs_nodes() if t != tree.root and tree.children[t])
        children = tuple(tree.children[node])
        down = state.ptd.cones[(node, children[0])]
        assert down
        bad = ExtensionChoice((0,) * len(children), 0, (down,) + (0,) * (len(children) - 1))
        with pytest.raises(ConsistencyError, match=r"\[PT4\]"):
            apply_step(state, node, bad)


class TestVerifyStep:
    def test_reports_empty_on_corpus(self):
        for name, k, q, seed in [("E1", 2, 2, 3), ("K3", 3, 3, 1), ("C4", 3, 3, 2)]:
            st, _, _ = solved_tree(named_graph(name), k, q, fuzz=2, seed=seed)
            for node, before, after, _choice in iterate_steps(st.ptd):
                report = verify_step(before, after)
                assert report.ok, f"{name}, node {node}: {report}"

    def test_reports_grown_bag_and_change_outside_scope(self):
        st, _, _ = solved_tree(named_graph("E1"), 2, 2)
        _node, before, after, _choice = next(iter(iterate_steps(st.ptd)))
        assert verify_step(before, after).ok
        ptd = after.ptd
        scope = after.scope
        p, c = next((p, c) for p, c in ptd.tree.edges() if p not in scope and c not in scope)
        t = next(t for t in ptd.tree.nodes if before.ptd.bags[t].bit_count() < ptd.host.n)
        bags = list(ptd.bags)
        bags[t] = (1 << ptd.host.n) - 1
        cones = dict(ptd.cones)
        cones[(p, c)] ^= 1
        keys, changed_bags = after.changed
        tampered = StepState(PreTreeDecomposition(ptd.tree, ptd.host, tuple(bags), cones),
                             after.processed, (keys | {(p, c)}, changed_bags | {t}))
        rules = {v.rule for v in verify_step(before, tampered).violations}
        assert {"width", "locality"} <= rules

    def test_later_state_without_start_raises(self):
        # The first state is the run's baseline; a later one built by hand
        # without it must not silently become its own.
        st, _, _ = solved_tree(named_graph("P3"), 2, 2, fuzz=1, seed=5)
        steps = iter(iterate_steps(st.ptd))
        _node, first, second, _choice = next(steps)
        assert first.start is None and second.start is first
        _node, before, after, _choice = next(steps)
        assert before is second and after.start is first
        orphan = StepState(before.ptd, before.processed, before.changed)
        with pytest.raises(ValueError, match="first state"):
            verify_step(orphan, after)


def tampered(state, bags=(), cones=()):
    """The state with vertex v toggled in bag t for each (t, v) and edge e
    toggled in the cone at key for each (key, e).  Each toggled node and
    key joins the state's record of its change; one toggled twice is back
    where it was, so the record is then a superset of the change."""
    ptd = state.ptd
    new_bags = list(ptd.bags)
    for t, v in bags:
        new_bags[t] ^= 1 << v
    new_cones = dict(ptd.cones)
    for key, e in cones:
        new_cones[key] ^= 1 << e
    keys, changed_bags = state.changed
    changed = (keys | {key for key, _e in cones}, changed_bags | {t for t, _v in bags})
    return StepState(PreTreeDecomposition(ptd.tree, ptd.host, tuple(new_bags), new_cones),
                     state.processed, changed)


def single_tampers(state):
    """Every state one bag vertex or one cone edge away from state."""
    ptd = state.ptd
    for t in ptd.tree.nodes:
        for v in ptd.host.vertices:
            yield tampered(state, bags=[(t, v)])
    for key in sorted(ptd.cones):
        for e in range(ptd.host.m):
            yield tampered(state, cones=[(key, e)])


def change_local_and_full(before, after, original):
    """(change-local, full-scan) violation lists of the step checks and of
    the axioms for the step before -> after from the original decomposition.
    The change-local checks read after's record of its change; given a
    record of every key and node instead, they must report the same."""
    everything = (frozenset(after.ptd.cones), frozenset(after.ptd.tree.nodes))
    whole = StepState(after.ptd, after.processed, everything)
    got = (verify_step(before, after).violations,
           validate_ptd(after.ptd, after.changed).violations)
    assert got == (verify_step(before, whole).violations,
                   validate_ptd(after.ptd, everything).violations)
    return got, (verify_step_oracle(before, after, original).violations,
                 validate_ptd_oracle(after.ptd).violations)


class TestChangeLocalChecks:
    """verify_step and validate_ptd(changed) look only at the change a
    step records.  A real step records exactly what it changed; a tampered
    state records at least that.  On any such record they must report what
    a full scan reports."""

    @pytest.mark.parametrize("name, k, q, seed", FUZZED_CORPUS)
    @pytest.mark.parametrize("slack", range(5))
    def test_match_full_scan_on_fuzzed_runs(self, name, k, q, seed, slack):
        st, _, _ = solved_tree(named_graph(name), k, q, fuzz=slack, seed=seed)
        rng = random.Random(f"{name}:{slack}")
        host, tree = st.ptd.host, st.ptd.tree
        keys = sorted(st.ptd.cones)
        for node, before, after, _choice in iterate_steps(st.ptd):
            assert after.changed == change_oracle(after.ptd, before.ptd)
            assert after.scope == StepState(after.ptd, after.processed).scope
            got, want = change_local_and_full(before, after, st.ptd)
            assert got == want == ([], [])
            # The step left out: the node's child edges enter the scope
            # unchanged, so only the edges new to the scope can show it.
            skipped = StepState(before.ptd, after.processed)
            got, want = change_local_and_full(before, skipped, st.ptd)
            assert got == want
            for _ in range(6):
                bags = [(rng.choice(tree.nodes), rng.choice(host.vertices))
                        for _ in range(rng.randrange(2))]
                cones = [(rng.choice(keys), rng.randrange(host.m))
                         for _ in range(rng.randrange(1, 3))]
                next_state = tampered(after, bags, cones)
                got, want = change_local_and_full(before, next_state, st.ptd)
                assert got == want, f"node {node}, bags {bags}, cones {cones}"

    def test_match_full_scan_on_every_single_tamper(self):
        st, _, _ = solved_tree(named_graph("P3"), 2, 2, fuzz=1, seed=5)
        for _node, before, after, _choice in iterate_steps(st.ptd):
            for next_state in single_tampers(after):
                got, want = change_local_and_full(before, next_state, st.ptd)
                assert got == want

    @pytest.mark.parametrize("name, k, q, seed, slack", [
        ("C6", 3, 4, 3, 3), ("C6", 3, 4, 3, 4), ("GRID2x3", 3, 4, 2, 3), ("GRID2x3", 3, 4, 2, 4),
    ])
    def test_runs_change_deep_subtrees(self, name, k, q, seed, slack):
        # A changed bag with in-scope descendants 3 levels below it: the
        # carried path sums and unions are updated over that subtree.
        st, _, _ = solved_tree(named_graph(name), k, q, fuzz=slack, seed=seed)
        tree = st.ptd.tree

        def levels_in_scope(t, scope):
            if not any(c in scope for c in tree.children[t]):
                return 0
            return 1 + max(levels_in_scope(c, scope) for c in tree.children[t] if c in scope)

        deepest = max(levels_in_scope(t, after.scope)
                      for _node, _before, after, _choice in iterate_steps(st.ptd)
                      for t in after.changed[1] if t in after.scope)
        assert deepest >= 3

    @pytest.mark.parametrize("name, k, q, seed", [
        ("C4", 3, 3, 2), ("C6", 3, 4, 3), ("GRID2x3", 3, 4, 2),
    ])
    def test_carried_values_match_a_fresh_start(self, name, k, q, seed):
        # verify_step carries each state's root-path sums and unions to the
        # next; a copy of the previous state carries none and has them
        # computed from its bags.  A copy of the first state is its own
        # start, whose width, path sums and boundaries it computes afresh.
        st, _, _ = solved_tree(named_graph(name), k, q, fuzz=4, seed=seed)
        rng = random.Random(name)
        host, tree = st.ptd.host, st.ptd.tree
        keys = sorted(st.ptd.cones)
        for _node, before, after, _choice in iterate_steps(st.ptd):
            fresh = StepState(before.ptd, before.processed, before.changed, before.start)
            bags = [(rng.choice(tree.nodes), rng.choice(host.vertices)) for _ in range(2)]
            for next_state in (tampered(after, bags, [(rng.choice(keys), rng.randrange(host.m))]),
                               after):
                carried = verify_step(before, next_state)
                assert carried.violations == verify_step(fresh, next_state).violations
                assert carried.violations == verify_step_oracle(before, next_state,
                                                                st.ptd).violations

    @pytest.mark.parametrize("rule", [
        "exactness", "only-remove", "locality", "balance", "width", "depth",
        "claim-child-new", "PT1", "PT2", "PT3", "PT4",
    ])
    def test_tampered_next_state_reports_rule(self, rule):
        st, _, _ = solved_tree(named_graph("C4"), 3, 3, fuzz=2, seed=2)
        for _node, before, after, _choice in iterate_steps(st.ptd):
            for next_state in single_tampers(after):
                got, want = change_local_and_full(before, next_state, st.ptd)
                if any(v.rule == rule for v in want[0] + want[1]):
                    assert got == want
                    assert any(v.rule == rule for v in got[0] + got[1])
                    return
        pytest.fail(f"no single tamper violates {rule}")


def free_edges(ptd, node):
    """The edges free at some child tree-edge of the node."""
    free = 0
    for c in ptd.tree.children[node]:
        free |= ptd.host.full_mask & ~(ptd.cones[(node, c)] | ptd.cones[(c, node)])
    return free


@functools.cache
def golden_trees():
    """The strategy trees of the pipelines whose certificates are pinned,
    then each with every bag but the root's padded by vertex 0: a step
    brings such a bag back to its local boundary."""
    trees = [solved_tree(named_graph(name), k, q, fuzz=slack, seed=seed)[0].ptd
             for name, k, q, slack, seed in test_integration.TestDeterminism.GOLDEN_CASES]
    return trees + [
        PreTreeDecomposition(ptd.tree, ptd.host,
                             tuple(b | (t != ptd.tree.root) for t, b in enumerate(ptd.bags)),
                             ptd.cones)
        for ptd in trees]


class TestStepsWithoutFreeEdges:
    """A node whose child tree-edges have no free edge moves no edge: its
    step only refreshes the bags that enter the scope."""

    def test_step_work_is_the_bag_refresh(self, monkeypatch):
        calls = {"blocks": [], "validate": [], "choose": 0, "apply": 0}
        kinds = []

        def choose(state, node):
            calls["blocks"].clear()
            calls["validate"].clear()
            calls["choose"] += 1
            return choose_extensions(state, node)

        def apply(state, node, choice):
            calls["apply"] += 1
            after = apply_step(state, node, choice)
            new = [t for t in (node, *state.ptd.tree.children[node]) if t not in state.scope]
            keys, bags = after.changed
            if not free_edges(state.ptd, node):
                # Only the bags entering the scope are computed, and on the
                # new decomposition, never on the one the state shares.
                assert sorted(t for _ptd, t in calls["blocks"]) == sorted(new)
                assert all(ptd is not state.ptd for ptd, _t in calls["blocks"])
                assert not keys and bags <= set(new)
                kinds.append("bags" if bags else "unchanged")
            else:
                kinds.append("free")
            # The axioms are checked wherever the step changed something.
            assert calls["validate"] == ([after.changed] if keys or bags else [])
            assert (after.ptd is state.ptd) == (not keys and not bags)
            return after

        def blocks(ptd, t):
            calls["blocks"].append((ptd, t))
            return local_blocks(ptd, t)

        def validate(ptd, changed=None):
            # Its own reads of the blocks are the check's, not the step's.
            calls["validate"].append(changed)
            before = len(calls["blocks"])
            report = validate_ptd(ptd, changed)
            del calls["blocks"][before:]
            return report

        monkeypatch.setattr(monotonize, "choose_extensions", choose)
        monkeypatch.setattr(monotonize, "apply_step", apply)
        monkeypatch.setattr(monotonize, "local_blocks", blocks)
        monkeypatch.setattr(pre_tree, "local_blocks", blocks)
        monkeypatch.setattr(monotonize, "validate_ptd", validate)
        for ptd in golden_trees():
            internal = sum(1 for t in ptd.tree.nodes if ptd.tree.children[t])
            calls["choose"] = calls["apply"] = 0
            run(ptd, verify=True)
            assert calls["choose"] == calls["apply"] == internal
        assert Counter(kinds) == {"unchanged": 47, "bags": 25, "free": 10}

    def test_no_free_edge_means_a_bag_refresh(self):
        # The golden trees without a free edge, padded or not, and the
        # solver's trees on the closure of every graph with n <= 5, k 1-3,
        # at the least winning q, none of which has a free edge.
        trees = [ptd for ptd in golden_trees()
                 if not any(free_edges(ptd, t) for t in ptd.tree.nodes)]
        assert len(trees) == len(golden_trees()) - 2
        for n in range(1, 6):
            for g in all_graphs(n):
                gc = closure(g)
                for k in range(1, 4):
                    q = minimum_placements(gc, k, False, n)
                    if q is not None:
                        st = build(gc, solve(gc, GameConfig(k, q)).strategy, GameConfig(k, q))
                        assert not any(free_edges(st.ptd, t) for t in st.ptd.tree.nodes)
                        trees.append(st.ptd)
        assert len(trees) == 12 + 1331
        for ptd in trees:
            exact = run(ptd)
            assert exact.cones == ptd.cones
            assert exact.bags == tuple(local_boundary(ptd, t) for t in ptd.tree.nodes)
            assert run(ptd, verify=True).bags == exact.bags


class TestRun:
    def test_exact_output_with_preserved_bounds(self):
        for name, k, q, seed in [("E1", 2, 2, 3), ("P4", 2, 3, 1), ("K3", 3, 3, 1)]:
            st, _, _ = solved_tree(named_graph(name), k, q, fuzz=1, seed=seed)
            exact = run(st.ptd, verify=True)
            assert is_exact(exact)
            assert ptd_width(exact) <= ptd_width(st.ptd)
            assert ptd_depth(exact) <= ptd_depth(st.ptd)

    @pytest.mark.parametrize("name, k, q, seed", FUZZED_CORPUS[::2])
    def test_verified_run_computes_each_input_boundary_once(self, name, k, q, seed,
                                                            monkeypatch):
        # verify_step reads the input's local boundaries off the run's first
        # state, which computes each node's once, for the node and as a child.
        st, _, _ = solved_tree(named_graph(name), k, q, fuzz=3, seed=seed)
        calls = []

        def counted(ptd, t):
            if ptd is st.ptd:
                calls.append(t)
            return local_boundary(ptd, t)

        monkeypatch.setattr(monotonize, "local_boundary", counted)
        run(st.ptd, verify=True)
        assert sorted(calls) == list(st.ptd.tree.nodes)

    def test_rejects_invalid_input_tree(self):
        # A bag deep in the tree misses a boundary vertex.  The steps
        # recompute that bag before they reach it and check only what they
        # change, so only the full check of the input finds it.
        st, _, _ = solved_tree(named_graph("P4"), 2, 3, fuzz=1, seed=1)
        ptd = st.ptd
        t = max((t for t in ptd.tree.nodes if ptd.bags[t]), key=lambda t: ptd.tree.depth[t])
        assert ptd.tree.depth[t] >= 2
        bags = list(ptd.bags)
        bags[t] &= bags[t] - 1  # drop the lowest vertex
        bad = PreTreeDecomposition(ptd.tree, ptd.host, tuple(bags), ptd.cones)
        assert [v.rule for v in validate_ptd(bad).violations] == ["PT3"]
        with pytest.raises(ValueError, match=r"\[PT3\] at node " + str(t)):
            run(bad)

    def test_free_edge_at_a_leaf_verifies(self, e1c):
        # Leaf 4 hangs off node 2 with the cone {0-1}, and the loop at 1 is
        # in neither cone of that tree edge.  The step puts it in 4's cone
        # toward 2, so 4's bag grows from [0] to [0, 1], which is 2's bag.
        text = dumps_graph(e1c) + "".join(line + "\n" for line in [
            "n 0 0 :", "n 1 0 : 0", "n 2 1 : 0 1", "n 3 1 : 0", "n 4 2 : 0", "n 5 2 : 1",
            "g 0 1 : 0 1 2", "g 1 0 :", "g 1 2 : 0 2", "g 1 3 : 1", "g 2 1 : 1",
            "g 2 4 : 0", "g 2 5 : 2", "g 3 1 : 0 2", "g 4 2 : 1", "g 5 2 : 0 1"])
        ptd = loads_ptd(text)
        assert validate_ptd(ptd).ok
        exact = run(ptd, verify=True)
        assert exact.bags[4] == exact.bags[2] == 0b11
        assert dumps_ptd(exact) == dumps_ptd(run(ptd))
        assert is_exact(exact)
        assert (ptd_width(exact), ptd_depth(exact)) == (1, 2)
        for _node, before, after, _choice in iterate_steps(ptd):
            assert verify_step_oracle(before, after, ptd).ok

    def test_valid_mutants_exactify(self):
        # Seeds 10 and 13 each hold a mutant with a free edge at a leaf
        # (test_free_edge_at_a_leaf_verifies).
        assert check_valid_mutants(range(10, 14), 100) >= 600

    def test_decomposition_mutants_exactify(self):
        # Mutants of pre-decompositions built from random tree
        # decompositions, which need not look like strategy trees.
        assert check_valid_mutants([3], 100, elimination_ptds) >= 700

    def test_trace_lines(self):
        from bdtw.tree_decomp import RootedTree

        # Relabel the non-root nodes in reverse so that level order differs
        # from id order.
        fuzzed, _, _ = solved_tree(named_graph("P3"), 2, 2, fuzz=1, seed=5)
        old = fuzzed.ptd
        size = old.tree.size
        new = [0] + [size - t for t in range(1, size)]
        parent = [0] * size
        bags = [0] * size
        for t in old.tree.nodes:
            parent[new[t]] = new[old.tree.parent[t]]
            bags[new[t]] = old.bags[t]
        cones = {(new[s], new[t]): m for (s, t), m in old.cones.items()}
        ptd = PreTreeDecomposition(RootedTree(parent), old.host, tuple(bags), cones)
        assert ptd.tree.bfs_nodes() != sorted(ptd.tree.nodes)
        lines = []
        exact = run(ptd, verify=True, trace=lines.append)
        order = [t for t in ptd.tree.bfs_nodes() if ptd.tree.children[t]]
        assert len(lines) == len(order) < ptd.tree.size
        steps = iterate_steps(ptd)
        for i, (line, node, (_n, _b, after, _c)) in enumerate(zip(lines, order, steps), 1):
            assert line.startswith(f"step {i} node {node} F={{")
            assert line.endswith(f" width={ptd_width(after.ptd)} depth={ptd_depth(after.ptd)}")
        assert lines[-1].endswith(f" width={ptd_width(exact)} depth={ptd_depth(exact)}")

    def test_edgeless_host_makes_no_step(self):
        # The tree is the root alone, a leaf: no step, no trace line.
        r = monotonize_pipeline(Graph(0, []), 1, 1, verify=True)
        assert r.member
        assert validate_td(r.td).ok
        ptd = r.strategy_tree.ptd
        assert ptd.tree.size == 1
        assert list(iterate_steps(ptd)) == []
        lines = []
        assert run(ptd, verify=True, trace=lines.append) is ptd
        assert lines == []

    def test_already_exact_input_only_normalizes(self):
        g = closure(named_graph("P3"))
        res = solve(g, GameConfig(2, 2, monotone=True))
        st = build(g, res.strategy, GameConfig(2, 2))
        exact = run(st.ptd, verify=True)
        assert exact.cones == st.ptd.cones
        for t in exact.tree.nodes:
            assert exact.bags[t] == local_boundary(st.ptd, t)

    def test_branching_bound_on_corpus(self):
        for name, k, q, seed in [("E1", 2, 2, 3), ("P3", 2, 2, 5), ("C4", 3, 3, 2)]:
            for fuzz in (0, 2):
                st, _, _ = solved_tree(named_graph(name), k, q, fuzz=fuzz, seed=seed)
                exact = run(st.ptd)
                assert check_branching_depth_bound(exact, st)

    def test_exact_outputs_satisfy_subtree_observations(self):
        from bdtw.pre_tree import (
            check_exact_path_nesting,
            check_exact_subtree_depth,
            check_exact_subtree_partition,
        )

        def admissible_subtrees(tree):
            """Root prefixes that cut at whole nodes, as the construction's
            regions do.  The bare root is excluded: with no parent-to-leaf
            cones at all there is nothing for the observations to say."""
            first = frozenset([tree.root]) | set(tree.children[tree.root])
            found = {first}
            frontier = [first]
            while frontier:
                nodes = frontier.pop()
                for t in nodes:
                    if tree.children[t] and not set(tree.children[t]) <= nodes:
                        grown = nodes | set(tree.children[t])
                        if grown not in found:
                            found.add(grown)
                            frontier.append(grown)
            return found

        for name, k, q, seed in [("E1", 2, 2, 3), ("P3", 2, 2, 5), ("K3", 3, 3, 1)]:
            st, _, _ = solved_tree(named_graph(name), k, q, fuzz=1, seed=seed)
            exact = run(st.ptd)
            subtrees = admissible_subtrees(exact.tree)
            assert len(subtrees) > 2
            for nodes in subtrees:
                assert check_exact_subtree_partition(exact, nodes)
                assert check_exact_subtree_depth(exact, nodes)
            for leaf in exact.tree.leaves():
                path = exact.tree.path_from_root(leaf)
                assert check_exact_path_nesting(exact, path)


class TestPipeline:
    def test_e1(self, e1):
        r = monotonize_pipeline(e1, 2, 2, verify=True)
        assert r.member
        assert validate_td(r.td).ok
        assert td_width(r.td) <= 1
        assert td_depth(r.td) <= 2

    def test_k3_member(self, k3):
        r = monotonize_pipeline(k3, 3, 3, verify=True)
        assert r.member
        assert td_width(r.td) <= 2
        assert td_depth(r.td) <= 3

    def test_k3_robber_certificate(self, k3):
        r = monotonize_pipeline(k3, 2, 5)
        assert not r.member
        assert r.td is None
        assert r.robber_certificate is not None

    def test_negative_slack_rejected(self, p3):
        with pytest.raises(ValueError, match="fuzz slack"):
            monotonize_pipeline(p3, 2, 2, fuzz_slack=-1)

    def test_fuzzed_bound_above_the_cap_is_refused(self, p3):
        # Two detours at seed 5 (q 62 gives bound 64) push q 63 to 65.
        assert monotonize_pipeline(p3, 2, 62, fuzz_slack=2, seed=5).placements_bound == 64
        with pytest.raises(ValueError, match="q 65 is above the cap of 64"):
            monotonize_pipeline(p3, 2, 63, fuzz_slack=2, seed=5)

    def test_fuzzed_bounds_use_slack(self, p3):
        r = monotonize_pipeline(p3, 2, 2, fuzz_slack=2, seed=5, verify=True)
        assert r.member
        assert r.fuzz_injected >= 1
        assert r.placements_bound == 2 + r.fuzz_injected
        assert td_width(r.td) <= 1
        assert td_depth(r.td) <= r.placements_bound

    def test_isolated_vertices_covered(self):
        g = Graph(5, [(0, 1), (1, 2)])
        r = monotonize_pipeline(g, 2, 2, verify=True)
        assert r.member
        assert validate_td(r.td).ok
        covered = 0
        for b in r.td.bags:
            covered |= b
        assert covered == (1 << g.n) - 1

    def test_budget_propagates(self, k3, monkeypatch):
        monkeypatch.setattr("bdtw.game.EXPANSION_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match="expanded 6 positions"):
            monotonize_pipeline(k3, 3, 3)
