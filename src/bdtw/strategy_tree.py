"""Strategy trees: a cop strategy played out from every initial robber
component, recorded as a pre-tree decomposition.

Each non-root node t with parent s stands for: the robber sits in a
component C of G - bag(s), cone(s, t) is its part (the edges with an
endpoint in C), and the cops answer with bag(t).  A node is a leaf when
the robber is captured there: its incoming part is a single edge already
covered by the parent's cops, and its component is empty.  Children of t
are the replies (game._replies) to the move bag(s) -> bag(t) whose parts
meet the incoming part and, alone, each incoming edge that no reply's part
holds, one under cops; the cone back to the parent is the complement of
the child cones, so non-monotone moves show up as non-exact tree edges.
This in-cone filter is the one place a tree differs from the game: after
a non-monotone move a reply may meet none of the incoming part, so a tree
can miss an escape that replay_cop_strategy finds.

The decomposition is the whole record: the move into t is bag(s) ->
bag(t), its kept cops are bag(s) & bag(t), as in the robber's replies, and
the branching nodes are read off the cones (structural_branching).  build
judges each move by its config's variant, as replay does.  Trees are
written and read as `.ptd` files.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import StrategyError
from .game import (
    GameConfig,
    Strategy,
    _is_move,
    _keeps_part,
    _replies,
    initial_components,
    replay_cop_strategy,
)
from .graphs import Graph, bit_indices, incident_edges, is_closure
from .pre_tree import PreTreeDecomposition, is_exact_edge, ptd_depth
from .tree_decomp import RootedTree


@dataclass
class StrategyTree:
    ptd: PreTreeDecomposition
    strategy: Strategy

    @property
    def host(self) -> Graph:
        return self.ptd.host


def build(g: Graph, sigma: Strategy, cfg: GameConfig) -> StrategyTree:
    """Play sigma from every initial robber component into a tree.

    The host must be a closure graph.  Raises StrategyError if sigma is
    undefined on a recorded position, plays a move there that _is_move
    refuses under cfg (its k and variant, as in replay), or leaves a
    recorded branch uncaptured after cfg.q placements; the error carries
    that play.  A strategy build accepts can still lose through a reply
    that its in-cone filter drops (see the module docstring).
    """
    if not is_closure(g):
        raise ValueError("strategy trees are built over closure graphs")
    full = g.full_mask

    parent: list[int] = [0]
    bags: list[int] = [0]  # cop-set masks, one bag per node
    cones: dict[tuple[int, int], int] = {}

    # node, parent, in-cone, the robber's component (empty at a capture), used
    queue: deque[tuple[int, int, int, int, int]] = deque()
    for c_mask in initial_components(g):
        child = len(parent)
        parent.append(0)
        bags.append(0)
        cone = cones[(0, child)] = incident_edges(g, c_mask)
        queue.append((child, 0, cone, c_mask, 0))

    def play_to(t: int) -> list[tuple[list[int], int]]:
        steps = []
        while t != 0:
            s = parent[t]
            steps.append((list(bit_indices(bags[s])), cones[(s, t)]))
            t = s
        return list(reversed(steps))

    while queue:
        t, s, in_cone, c_mask, used = queue.popleft()
        x_mask = bags[s]
        if not c_mask:
            u, v = g.endpoints(in_cone.bit_length() - 1)
            bags[t] = 1 << u | 1 << v
            cones[(t, s)] = full & ~in_cone
            continue
        if used >= cfg.q:
            raise StrategyError(
                f"strategy does not capture within {cfg.q} placements; "
                f"escaping play: {play_to(t)}"
            )
        new_mask = sigma.next_cops(x_mask, c_mask)
        if not _is_move(g, cfg.k, cfg.monotone, x_mask, c_mask, new_mask):
            raise StrategyError(
                f"strategy plays illegal move {list(bit_indices(new_mask))} at cops="
                f"{list(bit_indices(x_mask))} part={g.format_edges(in_cone)}"
            )
        bags[t] = new_mask
        # The replies whose parts meet the in-cone and, alone, each in-cone
        # edge under cops, which no reply's part holds (the replies are
        # disjoint: sum is union).
        replies = _replies(g, x_mask, c_mask, new_mask)
        children = [(cone, r) for r in replies if (cone := incident_edges(g, r)) & in_cone]
        captured = in_cone & ~incident_edges(g, sum(replies))
        children += [(1 << e, 0) for e in bit_indices(captured)]
        union = 0
        for cone, r in sorted(children, key=lambda child: child[0] & -child[0]):
            child = len(parent)
            parent.append(t)
            bags.append(0)
            cones[(t, child)] = cone
            union |= cone
            queue.append((child, t, cone, r, used + 1))
        cones[(t, s)] = full & ~union

    tree = RootedTree(parent)
    ptd = PreTreeDecomposition(tree, g, tuple(bags), cones)
    return StrategyTree(ptd, sigma)


def structural_branching(st: StrategyTree) -> frozenset[int]:
    """The branching nodes: non-root nodes with a child whose cone is a
    single self-loop.

    A loop vv becomes a lone child cone only when the move at the node
    placed v while the robber could reach vv, which is exactly a placement
    into the escape space.  This covers vertices whose only edge is their
    loop: catching a robber hiding there still takes a placement onto it.
    The root is excluded: its child cones are whole components (a bare
    vertex's component is a lone loop) and no move creates them."""
    g = st.host
    out = set()
    for t in st.ptd.tree.nodes:
        if t == st.ptd.tree.root:
            continue
        for c in st.ptd.tree.children[t]:
            mask = st.ptd.cone(t, c)
            if mask.bit_count() != 1:
                continue
            u, v = g.endpoints(mask.bit_length() - 1)
            if u == v:
                out.add(t)
                break
    return frozenset(out)


def move_is_monotone(st: StrategyTree, t: int) -> bool:
    """Whether the move creating t kept the robber part from growing at its
    removal stage, under the kept cops bag(parent) & bag(t)."""
    s = st.ptd.tree.parent[t]
    return _keeps_part(st.host, st.ptd.bags[s] & st.ptd.bags[t], st.ptd.cone(s, t))


def check_monotone_exact(st: StrategyTree) -> bool:
    """Each tree edge is exact iff its move was monotone, and every
    non-exact edge's removal stage strictly shrinks the cop set.

    A macro-move bundles removals with one placement, so the moved-to bag
    itself need not shrink across a non-exact edge; the strict shrink
    happens at the removal stage, before the placement."""
    tree = st.ptd.tree
    bags = st.ptd.bags
    for t in tree.nodes:
        if t == tree.root or not tree.children[t]:
            continue
        s = tree.parent[t]
        exact = is_exact_edge(st.ptd, s, t)
        if move_is_monotone(st, t) != exact:
            return False
        if not exact and not bags[s] & ~bags[t]:
            return False
    return True


def check_self_loop_cones(st: StrategyTree) -> bool:
    """At every internal non-root node, each self-loop of a bag vertex sits
    in the cone toward the parent or forms a singleton child cone."""
    g = st.host
    tree = st.ptd.tree
    for s in tree.nodes:
        if s == tree.root or not tree.children[s]:
            continue
        up = st.ptd.cone(s, tree.parent[s])
        for v in bit_indices(st.ptd.bags[s]):
            loop = 1 << g.edge_id(v, v)
            if loop & up:
                continue
            if not any(st.ptd.cone(s, c) == loop for c in tree.children[s]):
                return False
    return True


def depth_iff_winning(st: StrategyTree, cfg: GameConfig) -> bool:
    """Whether the tree's depth is at most q exactly when the strategy wins
    the q-placement game; it can be False for a sigma that loses only
    through a reply that build's in-cone filter drops (see the module
    docstring)."""
    outcome = replay_cop_strategy(st.host, st.strategy, cfg)
    return (ptd_depth(st.ptd) <= cfg.q) == outcome.wins


@dataclass
class FuzzResult:
    strategy: Strategy
    placements_bound: int  # the fuzzed strategy wins with this many placements
    injected: int


def fuzz_nonmonotone(g: Graph, sigma: Strategy, cfg: GameConfig, slack: int,
                     seed: int = 0) -> FuzzResult:
    """Inject up to `slack` redundant place-then-remove detours into a
    winning strategy.

    Each detour places a fresh cop w at one strategy key and removes it with
    the next move, costing one extra placement on plays through that key.
    Detour placements prefer a vertex of the robber's component with a
    neighbor there, which makes the follow-up removal grow the part and
    yields a genuinely non-monotone (non-exact) tree edge.  The perturbed
    strategy is replay-verified to win with q + injected placements.
    Raises ValueError if slack is negative.
    """
    if slack < 0:
        raise ValueError(f"fuzz slack must be at least 0, got {slack}")
    rng = random.Random(seed)
    moves = dict(sigma.moves)
    injected = 0
    detour_keys: set[tuple[int, int]] = set()

    for _ in range(slack):
        candidates = []
        for (x_mask, c_mask), target in moves.items():
            if x_mask.bit_count() >= cfg.k:
                continue
            if (x_mask, c_mask) in detour_keys:
                continue
            if (target & ~x_mask).bit_count() != 1:
                continue  # detours assume a fresh-placement move to resume
            free = bit_indices(c_mask & ~target)
            incident = [w for w in free if g._adj_mask[w] & c_mask]
            for w in incident or free:
                candidates.append(((x_mask, c_mask), target, w, w in incident))
        if not candidates:
            break
        # Prefer detours that will force a non-monotone edge; positions sort
        # by their parts.
        candidates.sort(key=lambda c: (not c[3], bit_indices(c[0][0]),
                                       incident_edges(g, c[0][1]), c[2]))
        preferred = [c for c in candidates if c[3]] or candidates
        key, target, w, _inc = preferred[rng.randrange(len(preferred))]
        x_mask, c_mask = key
        detour = x_mask | 1 << w
        responses = _replies(g, x_mask, c_mask, detour)
        if any((detour, r) in moves for r in responses):
            continue
        moves[key] = detour
        for r in responses:
            moves[(detour, r)] = target
        injected += 1
        detour_keys.add(key)

    fuzzed = Strategy(moves)
    bound = cfg.q + injected
    outcome = replay_cop_strategy(g, fuzzed, GameConfig(cfg.k, bound))
    if not outcome.wins:
        raise StrategyError("fuzzed strategy unexpectedly fails; this is a bug")
    return FuzzResult(fuzzed, bound, injected)
