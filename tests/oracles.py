"""Independent brute-force oracles used to compute expected test values.

Everything here works from first principles on tiny inputs and stays
deliberately separate from the library's implementations: definitions are
evaluated literally, partitions are enumerated, and the game oracle is a
plain recursive minimax without memoization.  The game oracles work on the
robber's part, an edge mask, where the library's rules work on the
robber's component, a vertex mask: their one reference for the parts
under a cop set is part_table_flood, and all_parts, part_of and responses
read it; the tests compare the two positions through `component`, the
part's free endpoints.  Three kinds of oracle are
the exception.  The full-move game oracle enumerates every legal move
(macro_moves: remove any cops, place one vertex, and in the monotone
variant keep the robber's part whole under the kept cops X & Y), where the
library only tests one move (_is_move) and the solver leaves out the
re-placements and, in the non-monotone variant, the moves that keep fewer
cops than there is room for.  The exactification
checks reuse the library's blocks and boundaries but scan every node and
edge, where the library looks only at the change a step records (the
change oracle finds it by comparing every key and bag), and evaluate
the bag algebra on Python sets where the library uses vertex masks.  The
extension oracle branches on every free edge, where the library searches
over which vertices may be split; both offer a free edge to internal
children only.  The branching oracle reads a strategy tree's moves off
its bags: a node branches when the fresh vertex of parent bag -> node bag
touches the robber's part, where the library looks for a lone self-loop
child cone.  The one-placement cases read the solver's own successor
lists, which the solver tests pin to macro_moves, to check the rule by
which the solver decides a position with one placement left.  The
elimination-forest decider at the end decides the class without the game
at all.
"""

from __future__ import annotations

import functools
import itertools

from bdtw.game import _Solver
from bdtw.graphs import Graph, bit_indices, bitmask
from bdtw.monotonize import ExtensionChoice, StepState
from bdtw.pre_tree import (
    PreTreeDecomposition,
    is_exact_edge,
    local_blocks,
    local_boundary,
    ptd_width,
)
from bdtw.validation import Report


def boundary_oracle(g: Graph, edge_ids: set[int]) -> set[int]:
    """Literal evaluation: v with one incident edge inside and one outside."""
    out = set()
    rest = set(range(g.m)) - set(edge_ids)
    for v in g.vertices:
        inside = any(v in g.endpoints(e) for e in edge_ids)
        outside = any(v in g.endpoints(e) for e in rest)
        if inside and outside:
            out.add(v)
    return out


def partitions_of_set(items: tuple) -> list[list[list]]:
    """All set partitions of the items (no empty blocks)."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for smaller in partitions_of_set(rest):
        for i in range(len(smaller)):
            out.append(smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:])
        out.append([[first]] + smaller)
    return out


def edge_partitions(g: Graph) -> list[tuple[int, ...]]:
    """All partitions of the edge set as tuples of masks (no empty blocks;
    the trivial all-in-one partition of an edgeless graph is one empty block)."""
    if g.m == 0:
        return [(0,)]
    out = []
    for blocks in partitions_of_set(tuple(range(g.m))):
        out.append(tuple(sum(1 << e for e in b) for b in blocks))
    return out


def connected_vertex_subsets(g: Graph, max_size: int) -> list[set[int]]:
    out = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(g.vertices, size):
            us = set(combo)
            start = combo[0]
            seen = {start}
            stack = [start]
            while stack:
                w = stack.pop()
                for x in g.neighbors(w):
                    if x in us and x not in seen:
                        seen.add(x)
                        stack.append(x)
            if seen == us:
                out.append(us)
    return out


# ---------------------------------------------------------------------------
# A from-scratch game oracle on edge parts.  States are (cop set, robber
# part, placements used); the parts come from the edge-mask flood
# (part_table_flood) and the minimax is not memoised, so it is slow but
# independent.

def _components_without(g: Graph, cops: frozenset[int]) -> list[set[int]]:
    left = [v for v in g.vertices if v not in cops]
    seen = set()
    comps = []
    for start in left:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in cops and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def part_table_oracle(g: Graph, x_mask: int) -> tuple:
    """The part table of the cop set x_mask as (masks, singles, of_edge,
    vertex_sets, kinds), built by the vertex-list search that the library's
    part table used before it worked on bitmasks, kept as written then."""
    records: list[tuple[str, frozenset[int], int]] = []
    # Single-edge parts: edges with both endpoints under cops.
    for eid, (u, v) in enumerate(g.edges):
        if x_mask >> u & 1 and x_mask >> v & 1:
            records.append(("edge", frozenset((u, v)), 1 << eid))
    # Component parts: cop-free components with their edges toward the cops.
    comp_of = [-1] * g.n
    comps: list[list[int]] = []
    for start in g.vertices:
        if x_mask >> start & 1 or comp_of[start] >= 0:
            continue
        cid = len(comps)
        comp_of[start] = cid
        verts = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if not x_mask >> w & 1 and comp_of[w] < 0:
                    comp_of[w] = cid
                    verts.append(w)
                    stack.append(w)
        comps.append(verts)
    comp_masks = [0] * len(comps)
    comp_verts = [set(vs) for vs in comps]
    for eid, (u, v) in enumerate(g.edges):
        if x_mask >> u & 1 and x_mask >> v & 1:
            continue
        cid = comp_of[v] if x_mask >> u & 1 else comp_of[u]
        comp_masks[cid] |= 1 << eid
        comp_verts[cid].add(u)
        comp_verts[cid].add(v)
    for cid in range(len(comps)):
        records.append(("component", frozenset(comp_verts[cid]), comp_masks[cid]))

    def order_key(rec):
        kind, verts, mask = rec
        if mask:
            return (0, (mask & -mask).bit_length())
        return (1, min(verts))

    records.sort(key=order_key)
    masks = tuple(mask for _, _, mask in records)
    singles = tuple(kind == "edge" for kind, _, _ in records)
    vertex_sets = tuple(verts for _, verts, _ in records)
    kinds = tuple(kind for kind, _, _ in records)
    of_edge = [-1] * g.m
    for idx, mask in enumerate(masks):
        for e in g.edge_ids(mask):
            of_edge[e] = idx
    return masks, singles, tuple(of_edge), vertex_sets, kinds


def part_table_flood(g: Graph, x_mask: int) -> tuple[int, ...]:
    """The component parts under the cop set x_mask, as edge masks ordered
    by lowest edge, by the edge-mask flood that the library's part table ran
    before the solver worked on vertex components, kept as written then (its
    cache left out): the game oracles' one reference for parts."""
    inc, adj = g._inc, g._adj_mask
    free = ((1 << g.n) - 1) & ~x_mask
    components: list[int] = []
    rest = free
    while rest:
        comp = frontier = rest & -rest
        edges = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            edges |= inc[v]
            grow = adj[v] & free & ~comp
            comp |= grow
            frontier |= grow
        rest &= ~comp
        if edges:
            components.append(edges)
    components.sort(key=lambda mask: mask & -mask)
    return tuple(components)


@functools.lru_cache(maxsize=4096)
def live_parts(g: Graph, x_mask: int) -> tuple[int, ...]:
    """part_table_flood, cached: the parts under x_mask that are no
    capture.  The cases below look a part up once per kept set."""
    return part_table_flood(g, x_mask)


@functools.lru_cache(maxsize=4096)
def all_parts(g: Graph, x_mask: int) -> tuple[int, ...]:
    """Every part under the cop set x_mask, captures included, by lowest
    edge id: the live parts and, on its own, each edge that none of them
    holds, whose ends are both under cops."""
    components = live_parts(g, x_mask)
    singles = tuple(1 << e for e in bit_indices(g.full_mask & ~sum(components)))
    return tuple(sorted(components + singles, key=lambda m: m & -m))


def part_of(g: Graph, x_mask: int, p_mask: int) -> int:
    """The part under x_mask that holds the lowest edge of p_mask."""
    low = p_mask & -p_mask
    return next(q for q in all_parts(g, x_mask) if q & low)


def is_capture(g: Graph, x_mask: int, p_mask: int) -> bool:
    """Whether the part p under x is a single edge with both ends under cops."""
    if p_mask & (p_mask - 1):
        return False
    u, v = g.endpoints(p_mask.bit_length() - 1)
    return bool(x_mask >> u & 1) and bool(x_mask >> v & 1)


def component(g: Graph, x_mask: int, p_mask: int) -> int:
    """The library's key for the part p under the cop set x: the vertex
    mask of p's free endpoints, the robber's component, empty for a
    capture."""
    out = 0
    for v, inc in enumerate(g._inc):
        if inc & p_mask:
            out |= 1 << v
    return out & ~x_mask


def naive_cop_wins(g: Graph, k: int, q: int, monotone: bool,
                   node_limit: int = 2_000_000) -> bool:
    """Plain minimax on the game tree, no memoization.

    Raises RuntimeError when the node budget runs out, so callers can scope
    the oracle to instances it can afford.
    """
    counter = [0]

    def cop_to_move(cops: frozenset[int], robber: int, used: int) -> bool:
        counter[0] += 1
        if counter[0] > node_limit:
            raise RuntimeError("oracle node limit exceeded")
        if used >= q:
            return False
        moves = set()
        cop_list = sorted(cops)
        for r_size in range(len(cop_list) + 1):
            for removed in itertools.combinations(cop_list, r_size):
                mid = cops - set(removed)
                if len(mid) >= k:
                    continue
                for v in g.vertices:
                    if v not in mid:
                        moves.add(frozenset(mid | {v}))
        for new_cops in sorted(moves, key=sorted):
            mid_part = part_of(g, bitmask(cops & new_cops), robber)
            if monotone and mid_part != robber:
                continue
            ok = True
            for part in all_parts(g, bitmask(new_cops)):
                if part & ~mid_part:
                    continue
                if is_capture(g, bitmask(new_cops), part):
                    continue
                if not cop_to_move(new_cops, part, used + 1):
                    ok = False
                    break
            if ok:
                return True
        return False

    return all(cop_to_move(frozenset(), p, 0) for p in all_parts(g, 0))


def submasks(mask: int):
    """Every submask of mask, descending."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def monotone_kept_set_cases(g: Graph):
    """(k, x_mask, c_mask, kept) for every k in 1..n+1, every cop set x of
    at most k vertices and every live part p under x, with c its
    component: kept lists, descending, each mid inside x with |mid| < k
    under which p stays whole, found by looking the part up."""
    for x_mask in range(1 << g.n):
        for p_mask in live_parts(g, x_mask):
            c_mask = component(g, x_mask, p_mask)
            whole = [mid for mid in submasks(x_mask) if part_of(g, mid, p_mask) == p_mask]
            for k in range(max(1, x_mask.bit_count()), g.n + 2):
                yield k, x_mask, c_mask, [mid for mid in whole if mid.bit_count() < k]


def macro_moves(g: Graph, k: int, monotone: bool, x_mask: int, p_mask: int) -> list[int]:
    """Every legal follow-up cop set, ascending as bitmasks: remove any
    subset of the cops x, then place one vertex not kept, with at most k
    cops after; in the monotone variant only the moves whose kept cops
    x & new leave the robber's part whole."""
    out = set()
    for removed in submasks(x_mask):
        mid = x_mask & ~removed
        if mid.bit_count() < k:
            out.update(mid | 1 << v for v in g.vertices if not mid >> v & 1)
    return sorted(m for m in out
                  if not monotone or part_of(g, x_mask & m, p_mask) == p_mask)


def responses(g: Graph, x_mask: int, p_mask: int, new_mask: int) -> tuple[int, ...]:
    """The robber's parts after the cop move from (x, part) to new, captures
    included: the parts under new inside the part under the kept cops
    x & new, by lowest edge id."""
    stage = part_of(g, x_mask & new_mask, p_mask)
    return tuple(q for q in all_parts(g, new_mask) if q & ~stage == 0)


def _search_cases(g: Graph, parts):
    """(k, monotone, solver, x_mask, c_mask) for every k in 1..n+1, both
    variants, every cop set x of at most k vertices and every part p under
    x that parts(g, x) lists, with c its component (empty for a capture)
    and solver a _Solver for (k, monotone) on a copy of g."""
    copy = Graph(g.n, g.edges)
    positions = [(x_mask, component(copy, x_mask, p_mask)) for x_mask in range(1 << g.n)
                 for p_mask in parts(copy, x_mask)]
    for k in range(1, g.n + 2):
        for monotone in (False, True):
            solver = _Solver(copy, k, monotone)
            for x_mask, c_mask in positions:
                if x_mask.bit_count() <= k:
                    yield k, monotone, solver, x_mask, c_mask


def one_placement_cases(g: Graph, parts=all_parts):
    """(k, monotone, x_mask, c_mask, wins) for every position of
    _search_cases (by default every part, captures included): wins tells
    whether some searched move leaves the robber no live reply, read off
    the successor list of a solver on a copy of g."""
    for k, monotone, solver, x_mask, c_mask in _search_cases(g, parts):
        yield k, monotone, x_mask, c_mask, any(
            not live for _, live in solver._successors(x_mask, c_mask))


def two_placement_cases(g: Graph, parts=all_parts):
    """(k, monotone, x_mask, c_mask, wins) for every position of
    _search_cases (by default every part, captures included): wins tells
    whether some searched move leaves only replies that one more placement
    captures, read off the successor list of a solver on a copy of g and
    its _wins_in_one per reply."""
    for k, monotone, solver, x_mask, c_mask in _search_cases(g, parts):
        yield k, monotone, x_mask, c_mask, any(
            all(solver._wins_in_one(new_mask, r_mask) for r_mask in live)
            for new_mask, live in solver._successors(x_mask, c_mask))


def three_placement_refutations(g: Graph, parts=live_parts):
    """(k, monotone, x_mask, c_mask, wins) for every position of
    _search_cases (by default every live part, the solver's domain) that
    _loses_in_three refutes on a solver on a copy of g: wins tells
    whether the list search with three placements left wins there, that
    is, whether some searched move leaves only replies that two more
    placements capture, read off the successor list and _wins_in_two per
    reply.  The search never calls the rule it checks."""
    for k, monotone, solver, x_mask, c_mask in _search_cases(g, parts):
        if solver._loses_in_three(x_mask, c_mask):
            yield k, monotone, x_mask, c_mask, any(
                all(solver._wins_in_two(new_mask, r_mask) for r_mask in live)
                for new_mask, live in solver._successors(x_mask, c_mask))


def full_move_win(g: Graph, k: int, monotone: bool):
    """win(x_mask, p_mask, b): whether k cops capture from (x, part) with at
    most b placements, by a memoised minimax over every move of macro_moves
    (re-placements and the pass included) and the robber's responses minus
    captures."""
    memo: dict[tuple[int, int, int], bool] = {}

    def win(x_mask: int, p_mask: int, b: int) -> bool:
        if b <= 0:
            return False
        key = (x_mask, p_mask, b)
        if key not in memo:
            memo[key] = any(
                all(win(m, q, b - 1)
                    for q in responses(g, x_mask, p_mask, m)
                    if not is_capture(g, m, q))
                for m in macro_moves(g, k, monotone, x_mask, p_mask)
            )
        return memo[key]

    return win


def full_move_cost(win, x_mask: int, p_mask: int, cap: int) -> int | None:
    """Fewest placements with which a full_move_win wins from (x, part), or
    None if more than cap."""
    return next((b for b in range(1, cap + 1) if win(x_mask, p_mask, b)), None)


def full_move_min_placements(g: Graph, k: int, monotone: bool, cap: int) -> int | None:
    """Fewest placements with which k cops win the game, or None if more
    than cap, by full_move_win."""
    win = full_move_win(g, k, monotone)
    starts = live_parts(g, 0)
    for b in range(cap + 1):
        if all(win(0, p, b) for p in starts):
            return b
    return None


# ---------------------------------------------------------------------------
# Full-scan exactification checks.  The library checks each step only where
# it changed the decomposition; these scan every node and edge, as the
# checks did before they were made change-local, and serve as the reference
# they must agree with.

def _vertex_sets(masks) -> list[frozenset[int]]:
    return [frozenset(bit_indices(m)) for m in masks]


def _path_sum_oracle(ptd: PreTreeDecomposition, t: int) -> int:
    """The telescoping bag-difference sum on the root path of t."""
    tree, bags = ptd.tree, _vertex_sets(ptd.bags)
    return sum(
        len(bags[s] - bags[tree.parent[s]])
        for s in tree.path_from_root(t) if s != tree.root
    )


def change_oracle(ptd: PreTreeDecomposition,
                  since: PreTreeDecomposition) -> tuple[set[tuple[int, int]], set[int]]:
    """The cone keys whose masks differ and the nodes whose bags differ
    between two decompositions on the same tree, found by comparing every
    key and node."""
    keys = {key for key in ptd.cones if ptd.cones[key] != since.cones[key]}
    bags = {t for t in ptd.tree.nodes if ptd.bags[t] != since.bags[t]}
    return keys, bags


def validate_ptd_oracle(ptd: PreTreeDecomposition) -> Report:
    """Every axiom at every node and edge."""
    report = Report()
    tree, g = ptd.tree, ptd.host
    root = tree.root
    bags = _vertex_sets(ptd.bags)
    if bags[root]:
        report.add("PT1", f"node {root}", f"root bag {sorted(bags[root])} is non-empty")
    child_cones = [ptd.cone(root, c) for c in tree.children[root]]
    for comp in _components_without(g, frozenset()):
        mask = sum(1 << e for e in range(g.m) if set(g.endpoints(e)) & comp)
        if mask not in child_cones:
            report.add(
                "PT1",
                f"component {sorted(comp)}",
                "no root child whose cone is exactly this component's edges",
            )

    for t in tree.nodes:
        if t != root and not tree.children[t]:
            up = ptd.cone(tree.parent[t], t)
            if bin(up).count("1") > 1:
                report.add("PT2", f"leaf {t}", f"cone from parent has {bin(up).count('1')} edges")

    for t in tree.nodes:
        blocks = local_blocks(ptd, t)
        union = 0
        overlap = 0
        for b in blocks:
            overlap |= union & b
            union |= b
        if overlap:
            report.add("PT3", f"node {t}", f"blocks overlap on edges {g.edge_ids(overlap)}")
        if union != g.full_mask:
            missing = g.full_mask & ~union
            report.add("PT3", f"node {t}", f"blocks miss edges {g.edge_ids(missing)}")
        if overlap == 0 and union == g.full_mask:
            delta = frozenset(bit_indices(local_boundary(ptd, t)))
            if not delta <= bags[t]:
                report.add(
                    "PT3",
                    f"node {t}",
                    f"bag {sorted(bags[t])} misses boundary vertices {sorted(delta - bags[t])}",
                )

    for p, c in tree.edges():
        both = ptd.cone(p, c) & ptd.cone(c, p)
        if both:
            report.add("PT4", f"edge {p}-{c}", f"opposite cones share edges {g.edge_ids(both)}")
    return report


def branching_oracle(ptd: PreTreeDecomposition) -> frozenset[int]:
    """Non-root nodes whose move, parent bag -> node bag, places a fresh
    cop on an endpoint of an edge in the robber's part (the in-cone)."""
    tree, bags = ptd.tree, _vertex_sets(ptd.bags)
    out = set()
    for t in tree.nodes:
        if t == tree.root:
            continue
        s = tree.parent[t]
        part = {v for e in ptd.host.edge_ids(ptd.cone(s, t)) for v in ptd.host.endpoints(e)}
        if (bags[t] - bags[s]) & part:
            out.add(t)
    return frozenset(out)


def verify_step_oracle(prev: StepState, next_state: StepState,
                       original: PreTreeDecomposition) -> Report:
    """Every per-step property at every edge and node of the tree."""
    report = Report()
    ptd_prev, ptd_next = prev.ptd, next_state.ptd
    tree = ptd_next.tree
    node = next_state.processed[-1]
    scope_prev = prev.scope
    scope_next = next_state.scope
    beta_prev, beta_next = (_vertex_sets(p.bags) for p in (ptd_prev, ptd_next))
    gamma_prev, gamma_next, gamma0 = ptd_prev.cones, ptd_next.cones, original.cones

    for p, c in tree.edges():
        if p in scope_next and c in scope_next:
            if not is_exact_edge(ptd_next, p, c):
                report.add("exactness", f"edge {p}-{c}",
                           "processed-region edge is not exact")

    processed = set(next_state.processed)
    for x in tree.nodes:
        if x in processed:
            continue
        for c in tree.children[x]:
            extra = gamma_next[(x, c)] & ~gamma0[(x, c)]
            if extra:
                report.add(
                    "only-remove", f"edge {x}-{c}",
                    f"unprocessed parent's cone gained edges {ptd_next.host.edge_ids(extra)}",
                )

    node_children = set(tree.children[node])
    for p, c in tree.edges():
        down_was, down_now = gamma_prev[(p, c)], gamma_next[(p, c)]
        up_was, up_now = gamma_prev[(c, p)], gamma_next[(c, p)]
        if p not in scope_next and c not in scope_next:
            if down_was != down_now or up_was != up_now:
                report.add("locality", f"edge {p}-{c}",
                           "cone changed outside the processed region")
        if (p in scope_next and c in scope_next
                and p not in node_children and c not in node_children):
            # Away from the processed node's child edges, one direction
            # gains exactly what the other loses.
            if down_now & ~down_was != up_was & ~up_now or \
                    up_now & ~up_was != down_was & ~down_now:
                report.add("balance", f"edge {p}-{c}",
                           "cone transfer between directions is unbalanced")

    for t in tree.nodes:
        parent_bag = beta_next[tree.parent[t]]
        if tree.children[t]:
            if len(beta_next[t]) > len(beta_prev[t]):
                report.add("width", f"node {t}",
                           f"bag grew from {sorted(beta_prev[t])} to {sorted(beta_next[t])}")
        elif beta_next[t] != beta_prev[t] and not beta_next[t] <= parent_bag:
            # A changed leaf bag need only lie within its parent's
            # (monotonize.verify_step).
            report.add("width", f"node {t}", f"leaf bag {sorted(beta_next[t])} is not "
                       f"within its parent's {sorted(parent_bag)}")
    wid0 = ptd_width(original)
    if ptd_width(ptd_next) > wid0:
        report.add("width", "global", f"width {ptd_width(ptd_next)} exceeds original {wid0}")

    for t in sorted(scope_next):
        now, was = _path_sum_oracle(ptd_next, t), _path_sum_oracle(original, t)
        if now > was:
            report.add("depth", f"node {t}", f"path sum {now} exceeds original {was}")

    children = tree.children[node]
    for c in children:
        new_here = beta_next[c] - beta_next[node]
        orig_here = (set(bit_indices(local_boundary(original, c)))
                     - set(bit_indices(local_boundary(original, node))))
        if not new_here <= orig_here:
            report.add("claim-child-new", f"node {c}",
                       f"{sorted(new_here - orig_here)} newly placed here but not originally")

    for t in sorted(scope_prev):
        gained = beta_next[t] - beta_prev[t]
        if gained:
            for t_star in tree.path_between(t, node):
                missing = gained - beta_next[t_star]
                if missing:
                    report.add(
                        "claim-gained-on-path", f"node {t}",
                        f"vertices {sorted(missing)} gained at {t} but absent at {t_star}",
                    )
        lost = beta_prev[t] - beta_next[t]
        if lost:
            for t_star in sorted(scope_prev):
                if t in tree.path_between(t_star, node):
                    still = lost & beta_next[t_star]
                    if still:
                        report.add(
                            "claim-lost-behind", f"node {t}",
                            f"vertices {sorted(still)} lost at {t} but present at {t_star}",
                        )

    for t in sorted(scope_prev):
        union_prev: set[int] = set()
        union_next: set[int] = set()
        for s in tree.path_from_root(t):
            union_prev |= beta_prev[s]
            union_next |= beta_next[s]
        u_new = union_next - union_prev
        t_star = tree.gca(t, node)
        w_gone = beta_prev[t_star] - beta_next[t_star]
        if len(u_new) > len(w_gone):
            report.add(
                "exchange", f"node {t}",
                f"|U|={len(u_new)} exceeds |W|={len(w_gone)} at ancestor {t_star}",
            )
    return report


# ---------------------------------------------------------------------------
# Free-edge extension search.  The library searches over which vertices may
# be split; this is the edge-by-edge search it replaced, and the reference
# its choice must equal.

def extension_oracle(state: StepState, node: int) -> tuple[ExtensionChoice, int]:
    """choose_extensions by branch and bound over the free edges, with the
    boundary size the choice reaches, which apply_step makes the node's
    bag.

    Each free edge in turn stays or moves into one child for which it is
    free and which is not a leaf (stay first, then children ascending); a branch is cut when the
    boundary its decided edges already force, with its moved count, is
    worse than the best complete assignment.  The first best assignment
    found is the least in (boundary, moved, assignment vector).  Its cost
    grows with the free-edge count, not the vertex count.
    """
    g = state.ptd.host
    tree = state.ptd.tree
    cones = state.ptd.cones
    children = tree.children[node]
    full = g.full_mask
    m_free = [full & ~(cones[(node, c)] | cones[(c, node)]) for c in children]
    free_union = 0
    for m in m_free:
        free_union |= m
    free_edges = list(g.edge_ids(free_union))

    # Parent first (if any), then children ascending.
    neighbors = ([] if node == tree.root else [tree.parent[node]]) + list(children)
    child_block_index = {c: neighbors.index(c) for c in children}
    blocks0 = [cones[(node, u)] for u in neighbors]
    block_of_edge: dict[int, int] = {}
    for bi, b in enumerate(blocks0):
        for e in g.edge_ids(b):
            block_of_edge[e] = bi
    options = [
        [None] + [j for j, m in enumerate(m_free) if m >> e & 1 and tree.children[children[j]]]
        for e in free_edges
    ]

    def forced_boundary(assign: list[int | None], depth: int) -> int:
        # Vertices already split between two decided blocks stay boundary
        # no matter how the remaining free edges are assigned.
        blocks = list(blocks0)
        undecided = 0
        for idx, e in enumerate(free_edges):
            bit = 1 << e
            if idx < depth:
                j = assign[idx]
                if j is not None:
                    src = block_of_edge.get(e)
                    if src is not None:
                        blocks[src] &= ~bit
                    blocks[child_block_index[children[j]]] |= bit
            else:
                undecided |= bit
                src = block_of_edge.get(e)
                if src is not None:
                    blocks[src] &= ~bit
        count = 0
        for v in g.vertices:
            inc = g.incident_mask(v) & ~undecided
            hit = 0
            for b in blocks:
                if inc & b:
                    hit += 1
                    if hit == 2:
                        count += 1
                        break
        return count

    assign: list[int | None] = [None] * len(free_edges)
    best: tuple[int, int] | None = None  # (boundary, moved) of best_assign
    best_assign: tuple[int | None, ...] = ()

    def search(depth: int, moved: int) -> None:
        nonlocal best, best_assign
        if depth == len(free_edges):
            key = (forced_boundary(assign, depth), moved)
            if best is None or key < best:
                best, best_assign = key, tuple(assign)
            return
        if best is not None and (forced_boundary(assign, depth), moved) > best:
            return
        for j in options[depth]:
            assign[depth] = j
            search(depth + 1, moved + (j is not None))
        assign[depth] = None

    search(0, 0)
    f_masks = [0] * len(children)
    for e, j in zip(free_edges, best_assign):
        if j is not None:
            f_masks[j] |= 1 << e
    f_union = 0
    for m in f_masks:
        f_union |= m
    f_star = tuple((m | f_union) & ~fj for m, fj in zip(m_free, f_masks))
    return ExtensionChoice(tuple(f_masks), f_union, f_star), best[0]


# ---------------------------------------------------------------------------
# A game-free decider for T^k_q: the treedepth recursion with a width cap
# (Nesetril and Ossona de Mendez, Sparsity, 2012).  A connected vertex set C
# whose neighbourhood N(C) is already placed needs
#     depth(C) = 1 + min over v in C of max depth(D), D a component of C - v,
# and v may be chosen only if |N(C)| + 1 <= k.  The bags N(C) + {v} form a
# tree decomposition of width < k whose root-to-leaf bag unions are the
# eliminated paths.  Loops are ignored: they change neither N(C) nor the
# components.

def elimination_depth(g: Graph, k: int) -> int | None:
    """Least depth of a tree decomposition of g with width below k, by the
    width-capped elimination-forest recursion on vertex masks; None if no
    decomposition of width below k exists."""
    adj = [sum(1 << w for w in g.neighbors(v)) for v in g.vertices]

    def spread(c: int) -> int:
        out = c
        for v in range(g.n):
            if c >> v & 1:
                out |= adj[v]
        return out

    def components(c: int) -> list[int]:
        out = []
        while c:
            comp = c & -c
            while (grown := spread(comp) & c) != comp:
                comp = grown
            out.append(comp)
            c &= ~comp
        return out

    @functools.cache
    def depth(c: int) -> float:
        if (spread(c) & ~c).bit_count() + 1 > k:
            return float("inf")
        return 1 + min(max((depth(d) for d in components(c & ~(1 << v))), default=0)
                       for v in range(g.n) if c >> v & 1)

    best = max((depth(c) for c in components((1 << g.n) - 1)), default=0)
    return None if best == float("inf") else int(best)
