"""The placement-limited cops-and-robber game and an exhaustive solver.

A position is (cop set X, robber component C, placements used), both sets
vertex masks: C is the component of G - X that holds the robber.  Its
edge view, the robber's part, is the edges with an endpoint in C; only the
monotone test, strategy trees and text lines read it.  A cop turn moves
the cops from X to a nonempty set Y of at most k vertices with at most one
vertex outside X, and increments the placement counter.  The kept cops
are X & Y: the robber's stage set S is the component of G - (X & Y) that
holds C, and it answers with any component of G - Y inside S.  A capture
is the empty component, the position after a move that leaves no such
component.  In the monotone variant a move is legal only if the robber's
part stays whole under X & Y, that is, if X & Y holds graphs.boundary of
the part: a removed cop joins C's component exactly when it has an edge in
the part, and it brings an edge from outside the part exactly when it is
a boundary vertex (on a plain host a removed cop whose edges all lie in
the part joins the component and leaves the part whole).  _stage,
_keeps_part, _is_move and _replies are the one statement of these rules,
which the solver, replay, play, strategy_tree and the tests call directly
(build keeps only the replies that meet the robber's part, its in-cone;
see strategy_tree).

The solver searches only the fresh moves, those that place v outside X.  A
re-placement, a move from (X, C) to some m inside X (the pass m = X
included), is never needed for the minimum:
- its single reply is S, the component of G - m that holds C;
- from (X, C) the cops can copy any strategy from (m, S), because more kept
  cops only shrink each stage set; monotone legality carries over, since in
  the monotone variant S keeps C's part;
- so cost(X, C) <= cost(m, S), while the re-placement spends a placement to
  reach (m, S).

In the non-monotone variant the solver also leaves out the fresh moves that
keep fewer cops than there is room for: it walks only the kept-cop sets
mid of X with |mid| = min(|X|, k - 1).  A larger kept set is never worse
(the copy argument of graph searching):
- for mid inside mid' inside X, each live reply to mid' + v lies inside a
  live reply to mid + v, and a capture stays a capture under more cops;
- the cops at (Y, C') with Y containing X and C' inside C can copy any
  strategy from (X, C): their first move goes to exactly the shadow's next
  cop set N, and their stage set, under the kept cops Y & N, lies inside
  the shadow's, since C' and C lie in one component of G - mid2 for every
  mid2 inside X.
The monotone variant walks every kept-cop set with |mid| < k that holds
the boundary of C's part, so keeps the part whole, since a removal that
leaves the shadow's part whole may grow the copier's smaller one.

The robber's replies to placing v in the stage set S are the components of
S - v, and a placement off S leaves S whole.

The solver computes, per (cop set, component), the interval of placement
budgets for which the position is known lost/won, so one run answers
every q up to a cap.  All iteration orders are canonical (components sort
by their lowest incident edge, and where positions are sorted, by their
parts); results are deterministic.

A host keeps, per k, the bounds table of its latest non-monotone solver,
and a monotone solver with that k starts from its losses.  This is sound:
monotone strategies are non-monotone ones, against the same replies, so a
non-monotone loss is a monotone loss.  Wins are not inherited, so each
monotone win is still proved by the monotone search, and a sweep that
compares the variants still tests their equivalence.  For the same reason
the bounds stay per host: the kept sets of the monotone variant depend on
the loops, and a closure that read the plain host's non-monotone bounds
would copy its answer instead of proving it.

Lookups are paid once.  The host graph caches the components of G - X per
cop set (graphs.components) and the robber's replies per (new cop set,
stage set).  Both depend on the non-loop adjacency alone, so the solvers
of every variant on a graph and on its closure fill and read one copy
(graphs.closure hands them over); the rules read the same component
table.  Each position's successor list, the pairs (new cop
set, replies) in search order, is built at the position's first expansion
with at least three placements left from one stage set per kept-cop set,
and replayed at every later one.  The non-monotone variant's kept sets,
stage sets and replies ignore the loops, so its lists are kept per k on
the graph and shared with the closure too; a monotone solver keeps its
own, since its kept sets hold the part's boundary, which loops change.

With one placement left a position needs no list.  The cops capture
exactly when the robber's component is a single vertex v, which they
place while keeping every cop on v's neighbours (a removed neighbour
joins v's component).  All of v's neighbours are cops, and a searched
move keeps X & adj(v) exactly when |adj(v)| < k: in the non-monotone
variant |X| < k keeps X and |X| = k drops a cop off v's neighbours; in
the monotone variant X & adj(v) holds the boundary of v's part p, so it is
a kept set the search walks.  The bound is not |boundary(p)| < k: a
neighbour with all its edges in p is no boundary vertex, so dropping it
keeps p whole, yet it joins v's component.

With two placements left a position needs no list either.  Each kept set
mid the search walks leaves a stage set S: C and the dropped cops next to
C in the monotone variant, where mid keeps p whole, and in the
non-monotone variant the component under mid that holds C and any
dropped cop with an edge in p.  So, by the rule above, two placements
capture exactly when for some such mid some v in S - x leaves S - v
independent, each of its vertices with fewer than k neighbours.  Every
S holds C, and a dropped cop in S must be a leaf there with fewer than k
neighbours, which rules out most kept sets at once.

With three placements left most losses need no list either.  Call a
vertex of C heavy when it has k or more neighbours (it lies outside
_few), and let H be the graph the heavy vertices induce.  When H is
nonempty, cost(x, C) >= td(H) + 1, with td the treedepth, so three
placements lose whenever H is not a star forest (td(H) >= 3):
- the robber keeps its component holding a connected set D of free heavy
  vertices, first a component of H with the largest td.  Every kept set
  lies inside the cop set, so D is free under it and the stage set holds
  D, whatever cops are lifted;
- placing v leaves a component D' of D - v with td(D') >= td(D) - 1, or
  none when D = {v}.  The robber replies with the component holding D',
  which is no capture, since D' is free;
- when D = {v}, at most k - 1 of v's k or more neighbours hold cops once
  v does, so the robber replies with the component of a free neighbour
  of v, and one more placement is needed.
The argument holds on both hosts and in both variants, since a monotone
strategy is a non-monotone one.  td(H) <= 2 exactly when every component
of H is a star, that is, when no two vertices with two or more
neighbours in H are adjacent.  A refuted position builds no list.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import BudgetExceededError, StrategyError
from .graphs import (
    Graph,
    bit_indices,
    bitmask,
    boundary,
    closure,
    components,
    incident_edges,
)

# No input at the stated scale comes near this many expansions (_Solver).
EXPANSION_BUDGET = 50_000_000


@dataclass(frozen=True)
class GameConfig:
    k: int
    q: int
    monotone: bool = False

    def __post_init__(self):
        if self.k < 1 or self.q < 1:
            raise ValueError("k and q must be at least 1")


@dataclass
class Strategy:
    """A positional cop strategy: (cop set, robber component) -> next cop
    set, all three vertex masks."""

    moves: dict[tuple[int, int], int] = field(default_factory=dict)

    def next_cops(self, x_mask: int, c_mask: int) -> int:
        try:
            return self.moves[(x_mask, c_mask)]
        except KeyError:
            raise StrategyError(
                f"strategy undefined at cops={list(bit_indices(x_mask))} "
                f"robber={list(bit_indices(c_mask))}"
            ) from None

    def __len__(self) -> int:
        return len(self.moves)


def _stage(g: Graph, mid: int, c_mask: int) -> int:
    """The robber's stage set: the component of G - mid that holds the
    component c of G - x, for kept cops mid inside x; empty for a capture."""
    low = c_mask & -c_mask
    for comp in components(g, mid):
        if comp & low:
            return comp
    return c_mask


def _keeps_part(g: Graph, mid: int, part: int) -> bool:
    """Whether the kept cops mid leave the robber's part, an edge mask,
    whole: whether they hold its boundary (module docstring)."""
    return not boundary(g, part) & ~mid


def _is_move(g: Graph, k: int, monotone: bool, x_mask: int, c_mask: int,
             new_mask: int) -> bool:
    """Whether the cops may move from (x, c) to the cop set new: a
    nonempty set of at most k host vertices, at most one outside x, whose
    kept cops x & new, in the monotone variant, leave c's part whole."""
    return (0 < new_mask < 1 << g.n and new_mask.bit_count() <= k
            and (new_mask & ~x_mask).bit_count() <= 1
            and (not monotone or _keeps_part(g, x_mask & new_mask, incident_edges(g, c_mask))))


def _replies(g: Graph, x_mask: int, c_mask: int, new_mask: int) -> tuple[int, ...]:
    """The robber's replies to the cop move from (x, c) to new that are
    not captures: the components of G - new inside the stage set under the
    kept cops x & new."""
    stage = _stage(g, x_mask & new_mask, c_mask)
    return tuple(r for r in components(g, new_mask) if not r & ~stage)


def initial_components(g: Graph) -> tuple[int, ...]:
    """The components the robber may start in: those of G with an edge."""
    return tuple(c for c in components(g, 0) if incident_edges(g, c))


class _Solver:
    """Exhaustive solver for one (graph, k, variant) combination.

    Its positions are (cop set x, robber component c), both vertex masks
    (module docstring).

    Each position pays for its moves and the robber's answers once: its
    first expansion with at least three placements left builds its successor
    list, the pairs (new cop set, the robber's replies) for every searched
    move in search order, and later expansions replay it.  The searched
    moves are the fresh ones, and in the non-monotone variant only those
    that keep min(|x|, k - 1) cops (see the module docstring).  The replies
    come from the host graph's response table, which every solver on that
    host and its closure shares, as the non-monotone solvers with the same
    k share their lists.  An expansion with one or two placements
    left reads no list (_wins_in_one, _wins_in_two), nor does one with
    three that _loses_in_three refutes; such an expansion visits none of
    the position's children, but counts as an expansion all the same.
    The expansion past EXPANSION_BUDGET raises BudgetExceededError.

    bounds holds one entry per position the solver has a bound for: those
    it searched and, in the monotone variant, the losses it inherited from
    the host's latest non-monotone solver with the same k.  Its length is
    the position count that solve reports.
    """

    def __init__(self, g: Graph, k: int, monotone: bool):
        self.g = g
        self.k = k
        self.monotone = monotone
        self.expansions = 0
        # (cops, component) -> [largest budget known lost, smallest budget
        # known won]
        self.bounds: dict[tuple[int, int], list]
        if monotone:
            # Every monotone strategy is a non-monotone one against the same
            # replies, so a non-monotone loss is a monotone loss.  Only the
            # losses carry over; each monotone win is proved afresh.
            lost = g._lost.get(k, {})
            self.bounds = {key: [e[0], None] for key, e in lost.items() if e[0] > 0}
        else:
            self.bounds = g._lost[k] = {}
        # The non-monotone lists ignore loops, so the host and its closure
        # share them (graphs module docstring).
        self._succ_cache: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = (
            {} if monotone else g._succ_cache.setdefault(k, {}))
        self._vertices = tuple(1 << v for v in g.vertices)
        # The vertices a lone-vertex capture can take: fewer than k neighbours.
        self._few = bitmask(v for v in g.vertices if g._adj_mask[v].bit_count() < k)

    def _near(self, c_mask: int) -> int:
        """The neighbours of c's vertices: those in c and the cops next to c."""
        adj = self.g._adj_mask
        out = 0
        while c_mask:
            low = c_mask & -c_mask
            c_mask ^= low
            out |= adj[low.bit_length() - 1]
        return out

    def _kept_sets(self, x_mask: int, c_mask: int) -> Sequence[int]:
        """The kept-cop sets the search walks from (x, c), descending as
        bitmasks: in the monotone variant the mid inside x with |mid| < k
        that hold the part's boundary, so keep it whole; in the non-monotone
        variant those with |mid| = min(|x|, k - 1), since keeping fewer cops
        is dominated (see the module docstring for both)."""
        if not self.monotone:
            if x_mask.bit_count() < self.k:
                return (x_mask,)
            # Dropping the lowest cop first gives the largest set first.
            return [x_mask ^ bit for bit in self._vertices if bit & x_mask]
        keep = boundary(self.g, incident_edges(self.g, c_mask))
        s = rest = x_mask & ~keep
        out = []
        while True:
            mid = keep | s
            if mid.bit_count() < self.k:
                out.append(mid)
            if s == 0:
                return out
            s = (s - 1) & rest

    def _successors(self, x_mask: int, c_mask: int) -> list[tuple[int, tuple[int, ...]]]:
        """(new cop set, the robber's replies) for every searched move: the
        kept-cop sets of _kept_sets, each with its fresh placed vertices
        ascending.  The replies to placing v in the stage set S, the
        component under the kept cops that holds c, are the components of
        S - v; a placement off S leaves S whole."""
        key = (x_mask, c_mask)
        cached = self._succ_cache.get(key)
        if cached is None:
            g = self.g
            table = g._resp_cache
            fresh = [bit for bit in self._vertices if not bit & x_mask]
            cached = []
            # A monotone kept set drops only cops whose edges all lie in
            # c's part; each joins c in the stage set.
            near = c_mask | self._near(c_mask) if self.monotone else 0
            for mid in self._kept_sets(x_mask, c_mask):
                if self.monotone:
                    s = near & ~mid
                elif mid == x_mask:
                    s = c_mask
                else:
                    s = _stage(g, mid, c_mask)
                whole = (s,)
                for bit in fresh:
                    m = mid | bit
                    if bit & s:
                        live = table.get((m, s))
                        if live is None:
                            # s, a component of G - mid, is its own stage set.
                            live = table[(m, s)] = _replies(g, mid, s, m)
                        cached.append((m, live))
                    else:
                        cached.append((m, whole))
            # Stored whole, as other solvers may read it.
            self._succ_cache[key] = cached
        return cached

    def win(self, x_mask: int, c_mask: int, b: int) -> bool:
        """Whether the cops capture from (x, c) using at most b placements."""
        if b <= 0:
            return False
        key = (x_mask, c_mask)
        entry = self.bounds.get(key)
        if entry is None:
            entry = self.bounds[key] = [0, None]
        elif b <= entry[0]:
            return False
        elif entry[1] is not None and b >= entry[1]:
            return True
        return self._expand(x_mask, c_mask, entry, b)

    def _wins_in_one(self, x_mask: int, c_mask: int) -> bool:
        """Whether one placement captures from (x, c), that is, whether
        some searched move leaves the robber no live reply: whether c is a
        single vertex with fewer than k neighbours, all of them cops (see
        the module docstring)."""
        return c_mask & (c_mask - 1) == 0 and bool(c_mask & self._few)

    def _wins_in_two(self, x_mask: int, c_mask: int) -> bool:
        """Whether two placements capture from (x, c): whether some kept
        set the search walks leaves a stage set that _stage_wins_in_two
        accepts (see the module docstring)."""
        few = self._few
        bad = c_mask & ~few
        if bad & (bad - 1):
            # Every stage set holds c.
            return False
        if self.monotone:
            # The kept set leaves p whole; its stage set is c and the
            # dropped cops next to c.
            near = c_mask | self._near(c_mask)
            return any(self._stage_wins_in_two(near & ~mid, x_mask)
                       for mid in self._kept_sets(x_mask, c_mask))
        # Keeping x, or dropping a cop with no edge in p, leaves S = c.
        if x_mask.bit_count() < self.k:
            return self._stage_wins_in_two(c_mask, x_mask)
        near = self._near(c_mask)
        if x_mask & ~near and self._stage_wins_in_two(c_mask, x_mask):
            return True
        adj = self.g._adj_mask
        # A dropped cop u with an edge in p joins the stage set; it must be
        # a leaf there, so it has fewer than k neighbours and at most one
        # of them free.
        drop = x_mask & near & few
        while drop:
            bit = drop & -drop
            drop ^= bit
            out = adj[bit.bit_length() - 1] & ~x_mask
            if out & (out - 1):
                continue
            # u's edge in p ends at a vertex of c, its one free neighbour,
            # so the stage set is c and u.
            if self._stage_wins_in_two(c_mask | bit, x_mask):
                return True
        return False

    def _stage_wins_in_two(self, s: int, x_mask: int) -> bool:
        """Whether two fresh placements capture a robber whose stage set is
        the connected vertex set s, which holds a vertex outside x:
        whether placing some v in s - x leaves s - v independent, each of
        its vertices with fewer than k neighbours."""
        bad = s & ~self._few
        if bad & (bad - 1):
            return False
        adj = self.g._adj_mask
        # A vertex with k or more neighbours can only be the placed one.
        centres = s & ~x_mask & (bad or s)
        while centres:
            bit = centres & -centres
            centres ^= bit
            leaves = s ^ bit
            if leaves & ~adj[bit.bit_length() - 1]:
                continue
            rest = leaves
            while rest:
                w = rest & -rest
                rest ^= w
                if adj[w.bit_length() - 1] & leaves:
                    break
            else:
                return True
        return False

    def _loses_in_three(self, x_mask: int, c_mask: int) -> bool:
        """Whether three placements cannot capture from (x, c) because c's
        heavy vertices, those with k or more neighbours, do not form a star
        forest: whether two of them that each have two or more heavy
        neighbours are adjacent (see the module docstring)."""
        heavy = c_mask & ~self._few
        if heavy.bit_count() < 3:
            return False
        adj = self.g._adj_mask
        hubs = 0
        rest = heavy
        while rest:
            bit = rest & -rest
            rest ^= bit
            near = adj[bit.bit_length() - 1] & heavy
            if near & (near - 1):
                hubs |= bit
        rest = hubs
        while rest:
            bit = rest & -rest
            rest ^= bit
            if adj[bit.bit_length() - 1] & hubs:
                return True
        return False

    def _expand(self, x_mask: int, c_mask: int, entry: list, b: int) -> bool:
        """win for a position whose bounds entry leaves b undecided."""
        self.expansions += 1
        if self.expansions > EXPANSION_BUDGET:
            raise BudgetExceededError(
                f"solver expanded {self.expansions} positions (budget {EXPANSION_BUDGET})"
            )
        if b == 1:
            result = self._wins_in_one(x_mask, c_mask)
        elif b == 2:
            result = self._wins_in_two(x_mask, c_mask)
        elif b == 3 and self._loses_in_three(x_mask, c_mask):
            result = False
        else:
            bounds = self.bounds
            c = b - 1
            result = False
            for new_mask, live in self._successors(x_mask, c_mask):
                # The memo test of win, inlined: a child decided by its
                # bounds costs no call.
                for q_mask in live:
                    child = bounds.get((new_mask, q_mask))
                    if child is None:
                        child = bounds[(new_mask, q_mask)] = [0, None]
                    elif c <= child[0]:
                        break
                    elif child[1] is not None and c >= child[1]:
                        continue
                    if not self._expand(new_mask, q_mask, child, c):
                        break
                else:
                    result = True
                    break
        if result:
            if entry[1] is None or b < entry[1]:
                entry[1] = b
        else:
            if b > entry[0]:
                entry[0] = b
        return result

    def cost(self, x_mask: int, c_mask: int, cap: int) -> int | None:
        """Minimum placements to guarantee capture, or None if above cap."""
        entry = self.bounds.setdefault((x_mask, c_mask), [0, None])
        b = entry[0] + 1
        while b <= cap:
            if self.win(x_mask, c_mask, b):
                return b
            b = entry[0] + 1
        return None

    def game_cost(self, cap: int) -> int | None:
        """Placements needed against the robber's best initial component."""
        worst = 0
        for c_mask in initial_components(self.g):
            c = self.cost(0, c_mask, cap)
            if c is None:
                return None
            worst = max(worst, c)
        return worst

    def cop_move(self, x_mask: int, c_mask: int, left: int) -> int:
        """The canonical cop move with `left` placements to go.

        Candidates are the moves the solver searches, the fresh placements
        of the successor list, in lexicographic (removal set, placed vertex)
        order; a re-placement inside x only spends a placement to reach a
        position the cops can already copy (see the module docstring).  The
        first candidate after which every response is won with one placement
        fewer than the position's cost is chosen; if the position is lost
        within `left`, the first candidate.  In the non-monotone variant
        the choice is the same as over all fresh moves: if removing R works,
        so does removing the prefix of R that keeps min(|x|, k - 1) cops,
        and that prefix sorts first.
        """
        succ = sorted(self._successors(x_mask, c_mask),
                      key=lambda e: (bit_indices(x_mask & ~e[0]), e[0] & ~x_mask))
        c = self.cost(x_mask, c_mask, left)
        if c is None:
            return succ[0][0]
        for new_mask, live in succ:
            if all(self.cost(new_mask, r_mask, c - 1) is not None for r_mask in live):
                return new_mask
        raise StrategyError("no move realizes the computed cost")

    def robber_move(self, x_mask: int, comps: Sequence[int], left: int) -> int | None:
        """The canonical robber choice among the components of G - x_mask
        in comps: the first that survives `left` placements, else the first
        that postpones capture longest; None if there is none."""
        for c_mask in comps:
            if not self.win(x_mask, c_mask, left):
                return c_mask
        return max(comps, key=lambda c: self.cost(x_mask, c, left), default=None)

    def extract_cop_strategy(self, q: int) -> Strategy:
        """Canonical positional strategy from all robber-reachable positions:
        cop_move at every position, with the whole budget q to go.  Positions
        are visited depth first, the lowest part (as an edge mask) first."""
        g = self.g
        sigma = Strategy()

        def pushed(x_mask, comps):
            return sorted(((x_mask, c) for c in comps),
                          key=lambda pos: incident_edges(g, pos[1]), reverse=True)

        stack = pushed(0, initial_components(g))
        while stack:
            x_mask, c_mask = stack.pop()
            if (x_mask, c_mask) in sigma.moves:
                continue
            if self.cost(x_mask, c_mask, q) is None:
                raise StrategyError("position is not winnable within the placement bound")
            new_mask = self.cop_move(x_mask, c_mask, q)
            sigma.moves[(x_mask, c_mask)] = new_mask
            stack += pushed(new_mask, _replies(g, x_mask, c_mask, new_mask))
        return sigma


class RobberStrategy:
    """A robber certificate: the solver's robber_move, which must survive."""

    def __init__(self, solver: _Solver, q: int):
        self._solver = solver
        self.q = q

    def initial_choice(self) -> int:
        s = self._solver
        c_mask = s.robber_move(0, initial_components(s.g), self.q)
        if c_mask is None or s.win(0, c_mask, self.q):
            raise StrategyError("cop player wins; there is no robber certificate")
        return c_mask

    def respond(self, x_mask: int, c_mask: int, placements_used: int, new_mask: int) -> int:
        """A surviving component after the cop move from (x_mask, c_mask)
        to new_mask."""
        s = self._solver
        left = self.q - placements_used - 1
        r_mask = s.robber_move(new_mask, _replies(s.g, x_mask, c_mask, new_mask), left)
        if r_mask is None or s.win(new_mask, r_mask, left):
            raise StrategyError("no surviving response; position was already lost")
        return r_mask


@dataclass
class SolveResult:
    winner: str  # "cop" | "robber"
    strategy: Strategy | RobberStrategy | None
    position_count: int


def solve(g: Graph, cfg: GameConfig) -> SolveResult:
    """Decide the game exactly and extract a strategy for the winner."""
    solver = _Solver(g, cfg.k, cfg.monotone)
    if solver.game_cost(cfg.q) is None:
        return SolveResult("robber", RobberStrategy(solver, cfg.q), len(solver.bounds))
    return SolveResult("cop", solver.extract_cop_strategy(cfg.q), len(solver.bounds))


def minimum_placements(g: Graph, k: int, monotone: bool, cap: int) -> int | None:
    """Fewest placements with which k cops win, or None if more than cap."""
    cfg = GameConfig(k, cap, monotone)
    return _Solver(g, cfg.k, cfg.monotone).game_cost(cfg.q)


def cops_win(g: Graph, k: int, q: int) -> bool:
    """Whether k cops win the non-monotone q-game on g, by one search at
    q placements; minimum_placements deepens from 1 to find the least q,
    which only a certificate needs."""
    cfg = GameConfig(k, q)
    solver = _Solver(g, cfg.k, cfg.monotone)
    return all(solver.win(0, c_mask, cfg.q) for c_mask in initial_components(g))


def variant_costs(g: Graph, ks: Sequence[int], cap: int) -> list[tuple[int | None, ...]]:
    """Per k in ks, minimum_placements for the four game variants, in the
    order plain non-monotone, plain monotone, closure non-monotone,
    closure monotone.

    The variants agree on the winner of the q-game for every q <= cap
    exactly when these four costs are equal.  Each monotone solve starts
    from the losses of the non-monotone solve before it on the same host
    and proves its wins itself.  One plain host and one closure serve
    every k, so each component table and response table is built once."""
    hosts = (g, closure(g))
    return [tuple(minimum_placements(host, k, monotone, cap)
                  for host in hosts for monotone in (False, True))
            for k in ks]


@dataclass
class ReplayResult:
    wins: bool
    max_placements: int
    escape: tuple | None  # a play the strategy fails to win, if any


def replay_cop_strategy(g: Graph, sigma: Strategy, cfg: GameConfig) -> ReplayResult:
    """Play sigma against every robber behavior.

    Returns whether every play ends in capture within q placements, the
    maximum placements any play needed, and an escaping play otherwise:
    the steps ("start", 0, c), ("move", x, c, new, r) and a last
    ("survived", x, c) or ("undefined", x, c), with cop sets and robber
    components as vertex masks.  Raises StrategyError if sigma plays an
    illegal move.
    """
    memo: dict[tuple[int, int, int], int | None] = {}

    def walk(x_mask: int, c_mask: int, used: int, trail: list) -> tuple[int | None, tuple | None]:
        """Max placements to finish all branches from here, or None + witness."""
        key = (x_mask, c_mask, used)
        if key in memo:
            return memo[key], None
        if used >= cfg.q:
            return None, tuple(trail + [("survived", x_mask, c_mask)])
        try:
            new_mask = sigma.next_cops(x_mask, c_mask)
        except StrategyError:
            return None, tuple(trail + [("undefined", x_mask, c_mask)])
        if not _is_move(g, cfg.k, cfg.monotone, x_mask, c_mask, new_mask):
            raise StrategyError(
                f"illegal move {list(bit_indices(new_mask))} from "
                f"cops={list(bit_indices(x_mask))} robber={list(bit_indices(c_mask))}"
            )
        worst = used + 1
        for r_mask in _replies(g, x_mask, c_mask, new_mask):
            step = ("move", x_mask, c_mask, new_mask, r_mask)
            sub, witness = walk(new_mask, r_mask, used + 1, trail + [step])
            if sub is None:
                return None, witness
            worst = max(worst, sub)
        memo[key] = worst
        return worst, None

    overall = 0
    for c_mask in initial_components(g):
        result, witness = walk(0, c_mask, 0, [("start", 0, c_mask)])
        if result is None:
            return ReplayResult(False, cfg.q, witness)
        overall = max(overall, result)
    return ReplayResult(True, overall, None)

