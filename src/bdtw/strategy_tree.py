"""Strategy trees: a cop strategy replayed against all robber behaviors,
recorded as a pre-tree decomposition.

Each non-root node t with parent s stands for: the robber sits in the part
cone(s, t) under the cop set bag(s), and the cops answer with bag(t).  A
node is a leaf when its incoming part is a single edge already covered by
the parent's cops.  Children of t are the parts under bag(t) that meet the
incoming part; the cone back to the parent is the complement of the child
cones, so non-monotone moves show up as non-exact tree edges.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .errors import FormatError, StrategyError
from .game import (
    GameConfig,
    Strategy,
    _macro_moves,
    _live_responses,
    _part_of,
    is_capture_mask,
    replay_cop_strategy,
)
from .graphs import Graph, bit_indices, bitmask, is_closure, part_table, vertices_of_mask
from .pre_tree import (
    PreTreeDecomposition,
    _parse_ptd_lines,
    _ptd_from_records,
    is_exact_edge,
    write_ptd,
)
from .tree_decomp import RootedTree


@dataclass(frozen=True)
class Move:
    """One cop macro-move: remove a set, then place one vertex."""

    removed: tuple[int, ...]
    placed: int


@dataclass
class StrategyTree:
    ptd: PreTreeDecomposition
    branching: frozenset[int]
    move_log: dict[int, Move]
    strategy: Strategy | None = None

    @property
    def host(self) -> Graph:
        return self.ptd.host

    def is_branching(self, t: int) -> bool:
        return t in self.branching


def _move_between(old: int, new: int) -> Move:
    added = new & ~old
    if added.bit_count() == 1:
        return Move(bit_indices(old & ~new), added.bit_length() - 1)
    if not added and new:
        # The placement re-used a removed cop; pick the canonical realization.
        placed = (new & -new).bit_length() - 1
        return Move(bit_indices(old & ~new | 1 << placed), placed)
    raise StrategyError(
        f"{list(bit_indices(old))} -> {list(bit_indices(new))} is not a macro-move")


def build(g: Graph, sigma: Strategy, cfg: GameConfig) -> StrategyTree:
    """Replay sigma from every initial robber component into a tree.

    The host must be a closure graph.  Raises if sigma is undefined on a
    reached position, plays an illegal move, or fails to capture within
    cfg.q placements; the error carries the escaping play.
    """
    if not is_closure(g):
        raise ValueError("strategy trees are built over closure graphs")
    full = g.full_mask

    parent: list[int] = [0]
    bags: list[int] = [0]  # cop-set masks, one bag per node
    cones: dict[tuple[int, int], int] = {}
    move_log: dict[int, Move] = {}
    branching: set[int] = set()

    queue: deque[tuple[int, int, int, int]] = deque()  # node, parent, in-cone, used
    for mask in part_table(g, 0).masks:
        if mask:
            child = len(parent)
            parent.append(0)
            bags.append(0)
            cones[(0, child)] = mask
            queue.append((child, 0, mask, 0))

    def play_to(t: int) -> list[tuple[list[int], int]]:
        steps = []
        while t != 0:
            s = parent[t]
            steps.append((list(bit_indices(bags[s])), cones[(s, t)]))
            t = s
        return list(reversed(steps))

    while queue:
        t, s, in_cone, used = queue.popleft()
        x_mask = bags[s]
        if is_capture_mask(g, x_mask, in_cone):
            u, v = g.endpoints(in_cone.bit_length() - 1)
            bags[t] = 1 << u | 1 << v
            cones[(t, s)] = full & ~in_cone
            continue
        if used >= cfg.q:
            raise StrategyError(
                f"strategy does not capture within {cfg.q} placements; "
                f"escaping play: {play_to(t)}"
            )
        new_mask = sigma.next_cops(x_mask, in_cone)
        if new_mask not in _macro_moves(g, cfg.k, False, x_mask, in_cone):
            raise StrategyError(
                f"strategy plays illegal move {list(bit_indices(new_mask))} at cops="
                f"{list(bit_indices(x_mask))} part={g.format_edges(in_cone)}"
            )
        bags[t] = new_mask
        move = _move_between(x_mask, new_mask)
        move_log[t] = move
        if g.incident_mask(move.placed) & in_cone:
            branching.add(t)
        child_cones = []
        for mask in part_table(g, new_mask).masks:
            if mask & in_cone:
                child = len(parent)
                parent.append(t)
                bags.append(0)
                cones[(t, child)] = mask
                child_cones.append(mask)
                queue.append((child, t, mask, used + 1))
        union = 0
        for mask in child_cones:
            union |= mask
        cones[(t, s)] = full & ~union

    tree = RootedTree(parent)
    ptd = PreTreeDecomposition(tree, g, tuple(bags), cones)
    return StrategyTree(ptd, frozenset(branching), move_log, sigma)


def structural_branching(st: StrategyTree) -> frozenset[int]:
    """Nodes with a child whose cone is a single self-loop; coincides with
    the branching set that build records (moves placing a cop on a vertex
    of the robber's part).

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
    removal stage."""
    tree = st.ptd.tree
    s = tree.parent[t]
    move = st.move_log[t]
    in_cone = st.ptd.cone(s, t)
    mid = st.ptd.bags[s] & ~bitmask(move.removed)
    return _part_of(st.host, mid, in_cone) == in_cone


def check_monotone_exact(st: StrategyTree) -> bool:
    """Each tree edge is exact iff its move was monotone, and every
    non-exact edge's removal stage strictly shrinks the cop set.

    A macro-move bundles removals with one fresh placement, so the moved-to
    bag itself need not shrink across a non-exact edge; the strict shrink
    happens at the removal stage, before the placement."""
    tree = st.ptd.tree
    for t in tree.nodes:
        if t == tree.root or not tree.children[t]:
            continue
        s = tree.parent[t]
        exact = is_exact_edge(st.ptd, s, t)
        if move_is_monotone(st, t) != exact:
            return False
        if not exact:
            removed = bitmask(st.move_log[t].removed) & st.ptd.bags[s]
            if not removed:
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
    the q-placement game."""
    from .pre_tree import ptd_depth

    if st.strategy is None:
        raise StrategyError("strategy tree was loaded without its strategy")
    outcome = replay_cop_strategy(st.host, st.strategy, cfg)
    return (ptd_depth(st.ptd) <= cfg.q) == outcome.wins


@dataclass
class FuzzResult:
    strategy: Strategy
    placements_bound: int  # the fuzzed strategy wins with this many placements
    injected: int
    detour_keys: list[tuple[int, int]] = field(default_factory=list)


def fuzz_nonmonotone(g: Graph, sigma: Strategy, cfg: GameConfig, slack: int,
                     seed: int = 0) -> FuzzResult:
    """Inject up to `slack` redundant place-then-remove detours into a
    winning strategy.

    Each detour places a fresh cop w at one strategy key and removes it with
    the next move, costing one extra placement on plays through that key.
    Detour placements prefer a vertex inside the robber part with a free
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
    detour_keys: list[tuple[int, int]] = []

    for _ in range(slack):
        candidates = []
        for (x_mask, part), target in moves.items():
            if x_mask.bit_count() >= cfg.k:
                continue
            if (x_mask, part) in detour_keys:
                continue
            if (target & ~x_mask).bit_count() != 1:
                continue  # detours assume a fresh-placement move to resume
            if is_capture_mask(g, x_mask, part):
                continue
            taken = x_mask | target
            free = bit_indices(vertices_of_mask(g, part) & ~taken)
            incident = [w for w in free
                        if vertices_of_mask(g, part & g.incident_mask(w)) & ~x_mask & ~(1 << w)]
            for w in incident or free:
                candidates.append(((x_mask, part), target, w, w in incident))
        if not candidates:
            break
        # Prefer detours that will force a non-monotone edge.
        candidates.sort(key=lambda c: (not c[3], bit_indices(c[0][0]), c[0][1], c[2]))
        preferred = [c for c in candidates if c[3]] or candidates
        key, target, w, _inc = preferred[rng.randrange(len(preferred))]
        x_mask, part = key
        detour = x_mask | 1 << w
        # The detour removes no cop, so part itself is the removal-stage part.
        responses = _live_responses(g, detour, part)
        if any((detour, q) in moves for q in responses):
            continue
        moves[key] = detour
        for q in responses:
            moves[(detour, q)] = target
        injected += 1
        detour_keys.append(key)

    fuzzed = Strategy(moves)
    bound = cfg.q + injected
    outcome = replay_cop_strategy(g, fuzzed, GameConfig(cfg.k, bound))
    if not outcome.wins:
        raise StrategyError("fuzzed strategy unexpectedly fails; this is a bug")
    return FuzzResult(fuzzed, bound, injected, detour_keys)


# ---------------------------------------------------------------------------
# Serialization: the pre-tree decomposition format plus `B <node>` branching
# markers and `m <node> : remove <v...> place <v>` move-log lines.  The
# strategy itself is not serialized; trees loaded from files carry
# strategy=None.

def write_strategy_tree(st: StrategyTree, out) -> None:
    extra = [f"B {t}" for t in sorted(st.branching)]
    for t in sorted(st.move_log):
        move = st.move_log[t]
        removed = " ".join(str(v) for v in move.removed)
        extra.append(
            f"m {t} :{(' remove ' + removed) if removed else ''} place {move.placed}"
        )
    write_ptd(st.ptd, out, extra)


def dumps_strategy_tree(st: StrategyTree) -> str:
    import io

    buf = io.StringIO()
    write_strategy_tree(st, buf)
    return buf.getvalue()


def read_strategy_tree(inp) -> StrategyTree:
    host, records = _parse_ptd_lines(inp)
    ptd = _ptd_from_records(host, records)
    branching: set[int] = set()
    move_log: dict[int, Move] = {}
    for tag, parts, lineno in records:
        if tag not in ("B", "m"):
            continue
        try:
            t = int(parts[1])
            if tag == "m":
                if "place" not in parts:
                    raise FormatError(f"line {lineno}: move record missing 'place'")
                pi = parts.index("place")
                removed = tuple(int(v) for v in parts[3:pi] if v != "remove")
                move = Move(removed, int(parts[pi + 1]))
        except (ValueError, IndexError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if t not in ptd.tree.nodes:
            raise FormatError(f"line {lineno}: node {t} is not in the tree")
        if tag == "B":
            branching.add(t)
            continue
        if t in move_log:
            raise FormatError(f"line {lineno}: second move record for node {t}")
        if any(v not in host.vertices for v in (*move.removed, move.placed)):
            raise FormatError(f"line {lineno}: move vertex outside 0..{host.n - 1}")
        move_log[t] = move
    return StrategyTree(ptd, frozenset(branching), move_log, None)


def loads_strategy_tree(text: str) -> StrategyTree:
    import io

    return read_strategy_tree(io.StringIO(text))
