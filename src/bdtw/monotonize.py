"""Breadth-first exactification of a pre-tree decomposition, normally a
strategy tree's.

A step processes one internal node, in BFS order: the free edges of its
child tree-edges (edges missing from both cones) are reassigned so that
the node's local partition has minimum boundary.  A leaf has no child
tree-edge and is no step; its bag is set at its parent's step, when it
enters the processed region's neighbors.  The boundary counts vertices, so
the search runs over which vertices may be split, not over the free edges,
and its cost does not grow with the number of free edges.
Then the change is pushed through the already-processed subtree: cones
pointing toward the node gain the moved edges, cones pointing away lose
them.  After step i all tree edges with both endpoints in the processed
region plus its neighbors are exact; after the last step the whole
decomposition is exact, with width and depth no larger than the input's.
The search reports only its moves: the minimum boundary it reaches is the
node's bag after the step.

A node whose child tree-edges have no free edge has nothing to reassign,
and its step costs only the refresh of the bags that enter the scope: the
choice is empty as soon as the free mask is, no cone is computed, the new
bags are read off the memoized boundaries (`pre_tree.local_boundary`),
and when no refreshed bag differs the new state shares the previous
decomposition and checks nothing.  On the solver's own strategy trees of
the test and benchmark corpora every step is of this kind; on the first
600 seed-4 ops of the `fuzz` benchmark 2,857 of 3,897 steps are.  There,
timed per step (best of 5 passes over fresh copies, on a noisy 2-core
x86-64 host with Python 3.11), such a step costs 4-6 us in
choose_extensions, 12-19 us in apply_step and 15-25 us in verify_step,
whose figure includes each run's one-time reads of the input's width and
path sums.

Between steps the object need not describe a strategy, but it stays a
pre-tree decomposition.  iterate_steps (and so run) checks the input
against the axioms in full once, before the first step, which fills the
input's memo of local boundaries.  apply_step writes only the cones that
differ, into a copy of the cone map made on the first write, whose memo
keeps every entry but those of the written cones' tails, so each local
boundary is computed once per decomposition: the first state's `_facts`
and both `is_exact` checks of a pipeline read the memo.  It takes its
scope as the previous one plus the node and its children, records on the
new state the cone keys and bags it changed, and checks the axioms only
there, so not at all after a step that changed nothing; it visits every
scope node only when edges move.
verify_step re-checks, per step, the rest of what the correctness argument
relies on: exactness of the processed region, that unprocessed nodes'
child cones only shrink, locality and balance of the cone changes,
per-node and global width, per-path depth sums, three vertex-tracking
claims, and the exchange inequality at the greatest common ancestor.
Every one of them reads the recorded change: the changed keys and bags,
the edges new to the scope, and the scope nodes below a changed bag, whose
root-path sums and bag unions it updates from the previous state's,
carried between steps.  What it compares against, the input's cones,
width, path sums and local boundaries, it reads from the run's first
state, which every later state keeps as its `start` and which computes
each of them once per run.  An unchanged cone or bag cannot break a rule
the previous state kept, so given that the previous step passed its checks
(run(verify=True) stops at the first that fails) and any superset of the
true change, each check reports what a full scan would.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import ConsistencyError
from .game import GameConfig, RobberStrategy, Strategy, solve
from .graphs import Graph, bit_indices, bitmask, closure
from .pre_tree import (
    Change,
    PreTreeDecomposition,
    _path_sums,
    is_exact,
    is_exact_edge,
    local_blocks,
    local_boundary,
    ptd_depth,
    ptd_width,
    to_tree_decomposition,
    validate_ptd,
)
from .strategy_tree import StrategyTree, build, fuzz_nonmonotone, structural_branching
from .tree_decomp import TreeDecomposition, validate_td
from .validation import Report


@dataclass
class StepState:
    """The decomposition after a prefix of the construction's steps, the
    internal nodes processed so far (in order), the cone keys and bag nodes
    the last step changed (none for the input), and the run's first state,
    whose decomposition is the input (None on that state itself)."""

    ptd: PreTreeDecomposition
    processed: tuple[int, ...]
    changed: Change = (frozenset(), frozenset())
    start: StepState | None = field(default=None, repr=False)

    @functools.cached_property
    def scope(self) -> frozenset[int]:
        """Processed nodes plus their tree neighbors.  apply_step sets it
        on the state it makes to the previous scope plus the processed node
        and its children; otherwise it is computed once from `processed`."""
        tree = self.ptd.tree
        out = set(self.processed)
        for t in self.processed:
            out.update(tree.children[t])
            out.add(tree.parent[t])
        return frozenset(out)

    @functools.cached_property
    def _paths(self) -> tuple[list[int], list[int]]:
        """Per node, the telescoping path sum (`pre_tree._path_sums`) and
        the union of the bags on its root path, read only on the scope.
        verify_step sets them on the state it checks from its predecessor's
        and the recorded change; otherwise they are computed once from the
        bags."""
        tree, bags = self.ptd.tree, self.ptd.bags
        return _path_sums(tree, bags), tree.path_unions(bags)

    @functools.cached_property
    def _facts(self) -> tuple[int, tuple[int, ...]]:
        """The width and the per-node local boundaries of the
        decomposition, which verify_step reads on a run's first state, so
        once per run; the boundaries come from the memo the input's full
        check filled.  The input's path sums are that state's `_paths[0]`."""
        ptd = self.ptd
        return ptd_width(ptd), tuple(local_boundary(ptd, t) for t in ptd.tree.nodes)


@dataclass
class ExtensionChoice:
    """Chosen free-edge reassignment at one node: per-child masks (in the
    order of the node's children), their union, and the per-child leftover
    complements."""

    f: tuple[int, ...]
    f_union: int
    f_star: tuple[int, ...]


def choose_extensions(state: StepState, node: int) -> ExtensionChoice:
    """Optimal assignment of free edges to the node's child cones.

    An edge is free for a child when neither cone of that tree edge holds
    it; each free edge may move into at most one child for which it is
    free and which is not a leaf.  A leaf's cone from the node must stay a
    single edge (PT2), so a leaf's free edges go to its cone toward the
    node through f_star.  Objectives, in order: minimum boundary of the
    resulting local partition, minimum number of moved edges,
    lexicographically least assignment vector (staying before moving, then
    children ascending).

    The node's blocks (its cones toward its neighbors, `local_blocks`)
    partition the edges (PT3, which every state iterate_steps passes
    keeps); a free edge ends in its own block or a child's it is free for,
    the others are fixed.  Only the endpoints of free edges can change
    whether they are boundary, and one with fixed edges in two blocks is
    boundary whatever moves, so only the other, open, endpoints are
    searched.  For each set B of open vertices, smallest first, the open
    vertices outside B that free edges join must share one block that all
    their edges allow.  The first size with a feasible B gives the minimum
    boundary; free edges between boundary vertices stay, the others go to
    their component's block.  The work is bounded by the number of subsets
    of open vertices, not by the free-edge count.  A node without free
    edges returns the empty choice once its child edges' free mask is read,
    before its blocks or any per-edge table.  The boundary reached is not
    returned; apply_step sets the node's bag to it.
    """
    ptd = state.ptd
    g = ptd.host
    tree = ptd.tree
    cones = ptd.cones
    children = tree.children[node]
    m_free = [g.full_mask & ~(cones[(node, c)] | cones[(c, node)]) for c in children]
    free = 0
    for m in m_free:
        free |= m
    if not free:
        none = (0,) * len(children)
        return ExtensionChoice(none, 0, none)
    blocks = local_blocks(ptd, node)
    free_edges = g.edge_ids(free)
    # A block is labelled by its index in `blocks`, so child j has label
    # j + offset; a set of labels is a bitmask.
    offset = len(blocks) - len(children)
    own = {e: i for i, b in enumerate(blocks) if b & free for e in g.edge_ids(b & free)}
    allowed = {e: 1 << own[e] | bitmask(j + offset for j, c in enumerate(children)
                                        if m_free[j] >> e & 1 and tree.children[c])
               for e in free_edges}
    touched = bitmask(v for e in free_edges for v in g.endpoints(e))
    open_labels: dict[int, int] = {}  # open vertex -> labels all its edges allow
    joined: dict[int, int] = {}  # open vertex -> vertices its free edges reach
    for v in bit_indices(touched):
        inc = g.incident_mask(v)
        fixed = bitmask(i for i, b in enumerate(blocks) if inc & b & ~free)
        if not fixed & (fixed - 1):
            open_labels[v], joined[v] = fixed or -1, 0
            for e in g.edge_ids(inc & free):
                open_labels[v] &= allowed[e]
                joined[v] |= bitmask(g.endpoints(e))

    def components(kept: int) -> list[tuple[int, int]] | None:
        """(free edges, common labels) of each component that free edges
        form on the open vertices in `kept`; None if one has no label."""
        out = []
        while kept:
            comp = frontier = kept & -kept
            labels, edges = -1, 0
            while frontier:
                reach = 0
                for v in bit_indices(frontier):
                    labels &= open_labels[v]
                    edges |= g.incident_mask(v) & free
                    reach |= joined[v]
                frontier = reach & kept & ~comp
                comp |= frontier
            if not labels:
                return None
            kept &= ~comp
            out.append((edges, labels))
        return out

    def key(vector: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return sum(j >= 0 for j in vector), vector

    for size in range(len(open_labels) + 1):
        feasible = [comps for split in itertools.combinations(open_labels, size)
                    if (comps := components(bitmask(open_labels) & ~bitmask(split))) is not None]
        if feasible:
            break
    # Components own disjoint free edges, so each picks its least label.
    vectors = []
    for comps in feasible:
        assign = dict.fromkeys(free_edges, -1)
        for edges, labels in comps:
            ids = g.edge_ids(edges)
            assign.update(zip(ids, min((tuple(-1 if own[e] == i else i - offset for e in ids)
                                        for i in bit_indices(labels)), key=key)))
        vectors.append(tuple(assign.values()))
    f_masks, f_union = [0] * len(children), 0
    for e, j in zip(free_edges, min(vectors, key=key)):
        if j >= 0:
            f_masks[j] |= 1 << e
            f_union |= 1 << e
    f_star = tuple((m | f_union) & ~fj for m, fj in zip(m_free, f_masks))
    return ExtensionChoice(tuple(f_masks), f_union, f_star)


def apply_step(state: StepState, node: int, choice: ExtensionChoice) -> StepState:
    """Process one internal node: reassign free edges below it and push the
    change through the processed region.

    `state` must satisfy the axioms, and its bags in scope must be their
    local boundaries, as in every state iterate_steps yields.  The new
    state's scope is the old one plus the node and its children.  Only
    the cones that differ are written, into a copy of the cone map made
    only if one does; with no moved edge only the child cones of the node
    and of its children can differ, so only those are computed, and with
    no leftover either (a node without free edges) none is.  The new
    decomposition is a shallow copy that skips its own check of every cone
    key: the keys are the input's by construction.  It shares `state`'s memo
    of local boundaries when no cone is written, and otherwise keeps a copy
    without the entries of the written keys' tails, the only nodes whose
    local blocks changed.  The new state records
    the cone keys and bags that differ from `state`; only bags that newly
    enter the scope or sit at a node with a changed cone are recomputed,
    on the copy.  The axioms are checked at that change (validate_ptd with
    `changed`, which also catches a cone outside the host), whether or not
    the run verifies its steps; a violation is an internal error.  A step
    that changes no cone and no bag checks nothing, as an empty change
    breaks no axiom, and its state shares `state`'s decomposition.
    """
    ptd = state.ptd
    tree = ptd.tree
    processed = state.processed + (node,)
    children = tree.children[node]
    new = [t for t in (node, *children) if t not in state.scope]
    scope = state.scope.union(new)
    f = choice.f_union
    f_by_child = dict(zip(children, choice.f))
    f_star_by_child = dict(zip(children, choice.f_star))
    # The root path is read only when edges move through the scope.
    toward = set(tree.path_from_root(node)) if f else ()
    cones = ptd.cones
    writes = {}
    # With no moved edge only the child cones of the node and of its
    # children can differ, and with no leftover either none can.
    for p in scope if f else (node, *children) if any(choice.f_star) else ():
        for c in tree.children[p]:
            down = cones[(p, c)]
            up = cones[(c, p)]
            if p == node:
                down_now, up_now = (down & ~f) | f_by_child[c], up | f_star_by_child[c]
            elif p in f_by_child:
                down_now, up_now = down & ~f_star_by_child[p], up
            elif c in toward:
                down_now, up_now = down | f, up & ~f
            else:
                # The moved edges leave every block of p's partition other
                # than the one toward the processed node.  A child outside
                # the region is not re-balanced itself: only the cone seen
                # from p changes, its own cones stay put.
                down_now, up_now = down & ~f, (up | f) if c in scope else up
            if down_now != down:
                writes[(p, c)] = down_now
            if up_now != up:
                writes[(c, p)] = up_now

    keys = frozenset(writes)
    tails = {s for s, _t in keys}
    # A bag already in scope is its local boundary; it changes only when a
    # cone out of its node does, and every cone the loop writes has its
    # tail in scope.  The bags are computed once the cones are in place, on
    # a copy that skips the constructor's check of every cone key: the keys
    # are the input's.  A node's local blocks are its cones with it as
    # tail, so the copy keeps every boundary of the memo but the tails'; a
    # copy without a cone write shares the memo.
    new_ptd = PreTreeDecomposition.__new__(PreTreeDecomposition)
    vars(new_ptd).update(vars(ptd))
    if writes:
        new_ptd.cones = dict(cones)
        new_ptd.cones.update(writes)
        new_ptd._boundaries = dict(ptd._boundaries)
        for t in tails:
            new_ptd._boundaries.pop(t, None)
    refreshed = {t: local_boundary(new_ptd, t) for t in tails.union(new)}
    bags = frozenset(t for t, b in refreshed.items() if b != ptd.bags[t])
    if not keys and not bags:
        after = StepState(ptd, processed, start=state.start or state)
    else:
        if bags:
            beta = list(ptd.bags)
            for t in bags:
                beta[t] = refreshed[t]
            new_ptd.bags = tuple(beta)
        report = validate_ptd(new_ptd, (keys, bags))
        if not report.ok:
            raise ConsistencyError(f"axiom violated after processing node {node}:\n{report}")
        after = StepState(new_ptd, processed, (keys, bags), state.start or state)
    after.scope = scope
    return after


def verify_step(prev: StepState, next_state: StepState) -> Report:
    """Re-check every per-step property the width/depth argument relies on,
    reading only the step's recorded change.

    The original is the input decomposition, the one of the run's first
    state, `prev.start or prev`.  Its cones, width, per-node path sums
    (`pre_tree._path_sums`) and local boundaries are read off that state,
    which computes each once per run (`_facts`, `_paths`).  A later state
    without a `start` raises ValueError rather than stand in for the
    original.  The checks and what each reads:

    - exactness: tree edges in scope with a key in `next_state.changed`,
      and the edges that newly enter the scope;
    - only-remove: changed keys from an unprocessed node to its child;
    - locality and balance: tree edges with a changed key;
    - per-node and global width: the changed bags.  An internal node's bag
      may not grow, and a changed leaf bag must lie within its parent's:
      PT2 keeps a leaf's cone from its parent one edge e, so a step makes
      the leaf's bag the endpoints of e with other edges, which may
      outnumber its old bag but are boundary at the parent.  That is all
      width and depth need of a leaf;
    - depth: the scope nodes whose root path holds a changed bag, and
      the nodes new to the scope;
    - the three vertex-tracking claims: the node's children and the
      changed bags, and for a bag that lost a vertex the nodes of the
      previous scope whose path to the node passes it, found in one walk.
      The child claim reads the original's local boundaries at the node
      and its children, not their bags: a step sets each bag it brings
      into scope to its local boundary, so a bag padded beyond it in the
      original would hide a child's vertices.  A strategy tree's bags are
      their local boundaries, so for it the two readings agree;
    - exchange: the nodes of the previous scope whose root path holds a
      changed bag, the only ones whose root-path bag union can grow.

    The root-path sums and unions are carried from state to state (the
    states' `_paths`): the next state's are a copy of the previous state's,
    updated below the changed bags within the scope and at the nodes new to
    it.  A state that carries none has them computed from its bags.
    Nothing that apply_step stored is read besides the decomposition, the
    scope and the record.  A step that changed no cone key, as every step
    at a node without free edges, skips the checks of changed keys and
    costs in proportion to the node's children and its changed bags.

    Premise: `prev` is the run's first state or a state whose own step
    passed this check, and `next_state` extends its processed nodes by the
    next internal node in BFS order, whose children the step brings into
    the scope; run(verify=True) keeps it, since a failing report raises.
    So edges of the previous scope are exact, unprocessed nodes' child
    cones are within the original's, every bag is within the original's
    width and every path sum in the previous scope within the original's,
    and an unchanged cone or bag cannot break a rule the previous state
    kept.  Given that, for any superset of the true change the report is
    the one a scan of every edge and node gives
    (`tests/oracles.verify_step_oracle`).

    The axioms are not re-checked here: apply_step validates every state it
    changes, with or without verification.
    """
    if prev.start is None and prev.processed:
        raise ValueError("a state after the first needs the run's first state as its start")
    start = prev.start or prev
    width0, boundary0 = start._facts
    sums0 = start._paths[0]
    report = Report()
    ptd_next = next_state.ptd
    tree = ptd_next.tree
    root, parent = tree.root, tree.parent
    node = next_state.processed[-1]
    children = tree.children[node]
    scope_prev = prev.scope
    scope_next = next_state.scope
    beta_prev, beta_next = prev.ptd.bags, ptd_next.bags
    gamma_prev, gamma_next = prev.ptd.cones, ptd_next.cones
    changed_keys, changed_bags = next_state.changed
    # Parents first: the node is new only at the root step.
    new = [t for t in (node, *children) if t not in scope_prev]
    # Tree edges with a changed cone, by their child end.
    changed_edges = (sorted({t if parent[t] == s else s for s, t in changed_keys})
                     if changed_keys else [])

    for c in sorted(set(changed_edges).union(new)) if changed_keys else new:
        if c == root:
            continue
        p = parent[c]
        if p in scope_next and c in scope_next and not is_exact_edge(ptd_next, p, c):
            report.add("exactness", f"edge {p}-{c}", "processed-region edge is not exact")

    if changed_keys:
        processed = set(next_state.processed)
        gamma0 = start.ptd.cones
        for x, c in sorted((x, c) for x, c in changed_keys if parent[c] == x):
            extra = gamma_next[(x, c)] & ~gamma0[(x, c)]
            if x not in processed and extra:
                report.add(
                    "only-remove", f"edge {x}-{c}",
                    f"unprocessed parent's cone gained edges {ptd_next.host.edge_ids(extra)}",
                )

    for c in changed_edges:
        p = parent[c]
        down_was, down_now = gamma_prev[(p, c)], gamma_next[(p, c)]
        up_was, up_now = gamma_prev[(c, p)], gamma_next[(c, p)]
        if (p not in scope_next and c not in scope_next
                and (down_was, up_was) != (down_now, up_now)):
            report.add("locality", f"edge {p}-{c}",
                       "cone changed outside the processed region")
        if (p in scope_next and c in scope_next
                and p not in children and c not in children):
            # Away from the processed node's child edges, one direction
            # gains exactly what the other loses.
            if down_now & ~down_was != up_was & ~up_now or \
                    up_now & ~up_was != down_was & ~down_now:
                report.add("balance", f"edge {p}-{c}",
                           "cone transfer between directions is unbalanced")

    bags_sorted = sorted(changed_bags)
    for t in bags_sorted:
        was, now = beta_prev[t], beta_next[t]
        if tree.children[t]:
            if now.bit_count() > was.bit_count():
                report.add("width", f"node {t}", f"bag grew from {list(bit_indices(was))} "
                           f"to {list(bit_indices(now))}")
        elif now != was and now & ~beta_next[parent[t]]:
            report.add("width", f"node {t}", f"leaf bag {list(bit_indices(now))} is not "
                       f"within its parent's {list(bit_indices(beta_next[parent[t]]))}")
    # Unchanged bags are within width0, so a changed bag above it is the
    # widest.
    if bags_sorted:
        width = max(beta_next[t].bit_count() for t in bags_sorted) - 1
        if width > width0:
            report.add("width", "global", f"width {width} exceeds original {width0}")

    # Path sums and unions differ from prev's only in the scope below a
    # changed bag and at new scope nodes; the scope is closed upward, so
    # each is recomputed from its parent's, parents first.
    was = prev._paths[1]
    sums, unions = list(prev._paths[0]), list(was)
    below: set[int] = set()
    tops = changed_bags.intersection(scope_next).union(new)
    for top in sorted(tops, key=tree.depth.__getitem__) if len(tops) > len(new) else new:
        if top in below:
            continue
        stack = [top]
        while stack:
            t = stack.pop()
            below.add(t)
            p = parent[t]
            sums[t] = 0 if t == root else sums[p] + (beta_next[t] & ~beta_next[p]).bit_count()
            unions[t] = beta_next[t] if t == root else unions[p] | beta_next[t]
            stack.extend(c for c in tree.children[t] if c in scope_next)
    next_state._paths = sums, unions
    below_sorted = sorted(below)
    for t in below_sorted:
        if sums[t] > sums0[t]:
            report.add("depth", f"node {t}", f"path sum {sums[t]} exceeds original {sums0[t]}")

    for c in children:
        new_here = beta_next[c] & ~beta_next[node]
        orig_here = boundary0[c] & ~boundary0[node]
        if new_here & ~orig_here:
            report.add("claim-child-new", f"node {c}",
                       f"{list(bit_indices(new_here & ~orig_here))} "
                       "newly placed here but not originally")

    def behind(t: int) -> set[int] | frozenset[int]:
        """The nodes of the previous scope whose path to the node passes t.
        With t on the node's root path that is all of the scope but the
        subtree of t's child toward the node, otherwise t's subtree.  The
        scope holds the root and is closed upward, so the scope nodes of a
        subtree are those its top reaches through children in scope."""
        u = node
        while tree.depth[u] > tree.depth[t] + 1:
            u = parent[u]
        if u == t:
            return scope_prev
        toward = parent[u] == t
        sub, stack = set(), [u if toward else t]
        while stack:
            x = stack.pop()
            sub.add(x)
            stack.extend(c for c in tree.children[x] if c in scope_prev)
        return scope_prev - sub if toward else sub

    for t in bags_sorted:
        if t not in scope_prev:
            continue
        gained = beta_next[t] & ~beta_prev[t]
        if gained:
            for t_star in tree.path_between(t, node):
                missing = gained & ~beta_next[t_star]
                if missing:
                    report.add(
                        "claim-gained-on-path", f"node {t}",
                        f"vertices {list(bit_indices(missing))} gained at {t} but absent at {t_star}",
                    )
        lost = beta_prev[t] & ~beta_next[t]
        if lost:
            for t_star in sorted(behind(t)):
                still = lost & beta_next[t_star]
                if still:
                    report.add(
                        "claim-lost-behind", f"node {t}",
                        f"vertices {list(bit_indices(still))} lost at {t} but present at {t_star}",
                    )

    for t in below_sorted:
        if t not in scope_prev:
            continue
        u_new = (unions[t] & ~was[t]).bit_count()
        if not u_new:
            continue
        t_star = tree.gca(t, node)
        w_gone = (beta_prev[t_star] & ~beta_next[t_star]).bit_count()
        if u_new > w_gone:
            report.add(
                "exchange", f"node {t}",
                f"|U|={u_new} exceeds |W|={w_gone} at ancestor {t_star}",
            )
    return report


def iterate_steps(ptd: PreTreeDecomposition,
                  ) -> Iterator[tuple[int, StepState, StepState, ExtensionChoice]]:
    """Yield (node, state before, state after, choice) for every step: one
    per internal node, in BFS order.

    The input is checked against the axioms in full once, before the first
    step (ValueError if it breaks them); apply_step checks every later
    state where its step changed it.
    """
    report = validate_ptd(ptd)
    if not report.ok:
        raise ValueError(f"input decomposition violates the axioms:\n{report}")
    state = StepState(ptd, ())
    for node in ptd.tree.bfs_nodes():
        if not ptd.tree.children[node]:
            continue
        choice = choose_extensions(state, node)
        after = apply_step(state, node, choice)
        yield node, state, after, choice
        state = after


def run(ptd: PreTreeDecomposition, verify: bool = False,
        trace: Callable[[str], None] | None = None) -> PreTreeDecomposition:
    """Exactify a pre-tree decomposition.

    The result is an exact pre-tree decomposition whose width and depth do
    not exceed the input's.  An input that breaks the axioms raises
    ValueError (iterate_steps).  With verify=True every step is re-checked
    and a non-empty report raises ConsistencyError.  An input without free
    edges, as the solver's strategy trees on the test and benchmark
    corpora are, comes back with its cones and with every bag set to its
    local boundary, one refresh per node; over the 260 member trees of the
    first 640 seed-4 `certify` ops, run takes 0.08-0.14 s (best of 7 on
    fresh copies, noisy 2-core x86-64 host, Python 3.11).  An input that no step changes is returned itself.
    """
    result = ptd
    g = ptd.host
    for node, before, after, choice in iterate_steps(ptd):
        if verify:
            report = verify_step(before, after)
            if not report.ok:
                raise ConsistencyError(f"step {len(after.processed)} at node {node}:\n{report}")
        if trace is not None:
            fs = "{" + ";".join(str(list(g.edge_ids(m))) for m in choice.f) + "}"
            trace(
                f"step {len(after.processed)} node {node} F={fs} "
                f"width={ptd_width(after.ptd)} depth={ptd_depth(after.ptd)}"
            )
        result = after.ptd
    if not is_exact(result):
        raise ConsistencyError("construction finished but the result is not exact")
    if ptd_width(result) > ptd_width(ptd) or ptd_depth(result) > ptd_depth(ptd):
        raise ConsistencyError("construction enlarged width or depth")
    return result


def check_branching_depth_bound(result: PreTreeDecomposition, st: StrategyTree) -> bool:
    """Final depth is at most the maximum number of branching nodes on any
    root-to-leaf path of the original tree."""
    tree = st.ptd.tree
    branching = structural_branching(st)
    counts = tree.path_totals([int(t in branching) for t in tree.nodes])
    return ptd_depth(result) <= max(counts, default=0)


@dataclass
class PipelineResult:
    member: bool
    td: TreeDecomposition | None
    robber_certificate: RobberStrategy | None
    strategy_tree: StrategyTree | None = None
    exact_ptd: PreTreeDecomposition | None = None
    placements_bound: int | None = None
    fuzz_injected: int = 0


def monotonize_pipeline(g: Graph, k: int, q: int, *,
                        fuzz_slack: int = 0, seed: int = 0,
                        verify: bool = False) -> PipelineResult:
    """Solve the non-monotone game on the closure, turn the winning
    strategy, which may be non-monotone, into a tree, exactify it, and
    convert to a tree decomposition of g.

    On a robber win the result carries the robber's certificate instead.
    With fuzz_slack > 0 the strategy is perturbed with redundant detours
    first; the decomposition bounds then hold for q + injected placements.
    A negative fuzz_slack raises ValueError.
    """
    if fuzz_slack < 0:
        raise ValueError(f"fuzz slack must be at least 0, got {fuzz_slack}")
    gc = closure(g)
    cfg = GameConfig(k, q)
    res = solve(gc, cfg)
    if res.winner == "robber":
        assert isinstance(res.strategy, RobberStrategy)
        return PipelineResult(False, None, res.strategy)
    sigma = res.strategy
    assert isinstance(sigma, Strategy)
    bound = q
    injected = 0
    if fuzz_slack:
        fz = fuzz_nonmonotone(gc, sigma, cfg, fuzz_slack, seed)
        sigma = fz.strategy
        bound = fz.placements_bound
        injected = fz.injected
    st = build(gc, sigma, GameConfig(k, bound))
    exact = run(st.ptd, verify=verify)
    td = to_tree_decomposition(exact, g)
    report = validate_td(td)
    if not report.ok:
        raise ConsistencyError(f"pipeline produced an invalid decomposition:\n{report}")
    return PipelineResult(True, td, None, st, exact, bound, injected)
