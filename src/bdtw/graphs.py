"""Finite graphs with self-loops, and bitmask vertex and edge sets.

Vertices are dense integers 0..n-1.  Edges are unordered pairs (u, v) with
u == v allowed (self-loop); each edge has a stable id equal to its position
in the edge tuple.  Every vertex set and every edge set in this package is
an int bitmask: bit v (or bit e) is set iff vertex v (edge e) belongs to the
set.  Vertex ids become lists only in the text formats and in messages.

A Graph's vertices and edges are fixed at construction.  It also keeps
four caches that the game fills as it runs, each read and written by one
owner:
- the components of G - X per cop set X, as vertex masks (`_comp_cache`,
  `components`), which the game's rules and the solver read alike;
- per stage (a kept-cop set and the robber's stage set under it), its
  segment: each vertex v outside the kept set with the robber's replies
  to placing v, the components of the stage set minus v (`_seg_cache`,
  `game._Solver._segment`);
- per k, the stage lists of the non-monotone solvers, each position's
  stage keys in search order (`_stage_lists`, `game._Solver._stages`);
- per k, the bounds of the non-monotone solvers (`_lost`, `game._Solver`).
Each holds facts about the graph itself, so no cache changes an answer,
and a Graph is safe to share.  All four depend only on the non-loop
adjacency, which a graph and its closure have in common, so `closure`
hands them to the graph it builds and the solvers on both hosts fill and
read one copy; `game` proves this for the bounds.  The monotone variant
reads the loops, through the part's boundary, so its stage lists and
bounds stay with each solver, as does each solver's stage bounds table.
"""

from __future__ import annotations

import io
from typing import IO, Iterable, Iterator, Sequence

from .errors import FormatError


class Graph:
    """An undirected graph, simple apart from self-loops."""

    __slots__ = ("n", "edges", "full_mask", "_index", "_inc", "_adj_mask",
                 "_comp_cache", "_seg_cache", "_stage_lists", "_lost")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            e = (u, v) if u <= v else (v, u)
            if e in index:
                raise ValueError(f"duplicate edge {e}; parallel edges are not supported")
            index[e] = len(norm)
            norm.append(e)
        self.n = n
        self.edges = tuple(norm)
        self.full_mask = (1 << len(norm)) - 1
        self._index = index
        inc = [0] * n
        adj = [0] * n
        for eid, (u, v) in enumerate(self.edges):
            inc[u] |= 1 << eid
            inc[v] |= 1 << eid
            if u != v:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        self._inc = tuple(inc)
        self._adj_mask = tuple(adj)
        self._comp_cache: dict[int, tuple[int, ...]] = {}
        # (kept set, stage set) -> the segment, (kept set + v, the robber's
        # replies) for every vertex v outside the kept set; filled by the
        # game solver, shared by every solver on this host and its closure.
        self._seg_cache: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}
        # k -> (cops, component) -> the stage keys of the non-monotone game
        # solvers with k cops on this host and its closure.
        self._stage_lists: dict[int, dict[tuple[int, int], list]] = {}
        # k -> the bounds table that the non-monotone game solvers with k
        # cops on this host and its closure extend; a monotone solver starts
        # from its losses.
        self._lost: dict[int, dict[tuple[int, int], list]] = {}

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u <= v else (v, u)
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"no edge {key}") from None

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u <= v else (v, u)
        return key in self._index

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors via non-loop edges, ascending."""
        return bit_indices(self._adj_mask[v])

    def incident_mask(self, v: int) -> int:
        return self._inc[v]

    def edge_mask(self, ids: Iterable[int]) -> int:
        mask = 0
        for e in ids:
            if not 0 <= e < self.m:
                raise ValueError(f"edge id {e} out of range")
            mask |= 1 << e
        return mask

    def mask_of(self, pairs: Iterable[tuple[int, int]]) -> int:
        return self.edge_mask(self.edge_id(u, v) for u, v in pairs)

    def edge_ids(self, mask: int) -> tuple[int, ...]:
        return bit_indices(mask)

    def edge_pairs(self, mask: int) -> tuple[tuple[int, int], ...]:
        return tuple(self.edges[e] for e in self.edge_ids(mask))

    def format_edges(self, mask: int) -> str:
        return "{" + ",".join(f"{u}-{v}" for u, v in self.edge_pairs(mask)) + "}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)!r})"


def bitmask(items: Iterable[int]) -> int:
    """The int bitmask with bit i set for each i in items."""
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask


def bit_indices(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def closure(g: Graph) -> Graph:
    """The graph with a self-loop added at every vertex that lacks one.

    Original edge ids are preserved; new loops are appended in vertex order.
    The closure shares g's component and segment tables and its
    non-monotone stage lists and bounds, which depend on the non-loop
    adjacency alone (module docstring).
    """
    edges = list(g.edges)
    for v in g.vertices:
        if not g.has_edge(v, v):
            edges.append((v, v))
    out = Graph(g.n, edges)
    out._comp_cache = g._comp_cache
    out._seg_cache = g._seg_cache
    out._stage_lists = g._stage_lists
    out._lost = g._lost
    return out


def is_closure(g: Graph) -> bool:
    return all(g.has_edge(v, v) for v in g.vertices)


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, ordered by lowest vertex."""
    return sorted(components(g, 0), key=lambda comp: comp & -comp)


def boundary(g: Graph, x: int) -> int:
    """Vertices incident to at least one edge inside x and one outside x."""
    return blocks_boundary(g, (x,))


def blocks_boundary(g: Graph, blocks: Sequence[int]) -> int:
    """The vertices with an edge inside and an edge outside some block, so
    the union of `boundary(g, b)` over the blocks; the one boundary kernel.
    One pass over the vertices, trying the blocks in order until one
    splits the vertex; the blocks need not be disjoint, non-empty or cover
    the edges."""
    out = 0
    for v, inc in enumerate(g._inc):
        for b in blocks:
            if 0 != inc & b != inc:
                out |= 1 << v
                break
    return out


def is_connected_set(g: Graph, u: int) -> bool:
    """Whether the vertex set u induces a connected subgraph (loops ignored):
    whether u is empty or the one component of G minus the other vertices."""
    return not u or components(g, ((1 << g.n) - 1) & ~u) == (u,)


def components(g: Graph, x_mask: int) -> tuple[int, ...]:
    """The vertex masks of the components of G - x, ordered by their lowest
    incident edge, a vertex without edges sorting as edge g.m + v.  The
    order is the same on g and its closure, whose new loops come after
    g's edges in vertex order, so the two share the cache.
    """
    cached = g._comp_cache.get(x_mask)
    if cached is not None:
        return cached
    inc, adj = g._inc, g._adj_mask
    free = ((1 << g.n) - 1) & ~x_mask
    keyed: list[tuple[int, int]] = []
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
        keyed.append(((edges & -edges).bit_length() - 1 if edges
                      else g.m + comp.bit_length() - 1, comp))
    keyed.sort()
    table = g._comp_cache[x_mask] = tuple(comp for _, comp in keyed)
    return table


def incident_edges(g: Graph, vertex_mask: int) -> int:
    """The edge mask of the edges with an endpoint in the vertex set."""
    inc = g._inc
    out = 0
    while vertex_mask:
        low = vertex_mask & -vertex_mask
        vertex_mask ^= low
        out |= inc[low.bit_length() - 1]
    return out


# ---------------------------------------------------------------------------
# PACE-style text format: `c` comments, `p tw <n> <m>` header, one edge per
# line as `u v` with 1-based vertices; `v v` encodes a self-loop.

# The largest vertex count a header may declare, checked before a Graph
# allocates per vertex, and of a corpus graph.  It is well above the exact
# solver's scale of about 9 vertices; a graph of this size with no edges
# is decided in well under a second and a few MB.
MAX_VERTICES = 64


def write_graph(g: Graph, out: IO[str]) -> None:
    out.write(f"p tw {g.n} {g.m}\n")
    for u, v in g.edges:
        out.write(f"{u + 1} {v + 1}\n")


def dumps_graph(g: Graph) -> str:
    buf = io.StringIO()
    write_graph(g, buf)
    return buf.getvalue()


def records(inp: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) for each line that is neither blank nor a `c`
    comment, numbered from 1: the one record syntax of the `.gr`, `.td`
    and `.ptd` formats."""
    for lineno, raw in enumerate(inp, 1):
        parts = raw.split()
        if parts and not parts[0].startswith("c"):
            yield lineno, parts


def read_graph(inp: Iterable[str]) -> Graph:
    return _graph_from_records(records(inp))


def _graph_from_records(recs: Iterable[tuple[int, list[str]]]) -> Graph:
    """The graph of `.gr` records as `records` gives them; errors name
    their line numbers and the file's 1-based vertex ids, and every one
    the Graph would refuse is caught here first."""
    n = None
    m = None
    edges: dict[tuple[int, int], None] = {}  # ordered, for the edge ids
    for lineno, parts in recs:
        try:
            if parts[0] == "p":
                if n is not None:
                    raise FormatError(f"line {lineno}: repeated header")
                if len(parts) != 4 or parts[1] != "tw":
                    raise FormatError(f"line {lineno}: expected 'p tw <n> <m>'")
                n, m = int(parts[2]), int(parts[3])
                if n < 0:
                    raise FormatError(f"line {lineno}: vertex count {n} is negative")
                if n > MAX_VERTICES:
                    raise FormatError(
                        f"line {lineno}: vertex count {n} is above {MAX_VERTICES}")
                continue
            if n is None:
                raise FormatError(f"line {lineno}: edge before header")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected 'u v'")
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: vertex out of range")
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in edges:
            raise FormatError(f"line {lineno}: duplicate edge {u} {v}; "
                              "parallel edges are not supported")
        edges[key] = None
    if n is None:
        raise FormatError("missing 'p tw' header")
    if m is not None and m != len(edges):
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def loads_graph(text: str) -> Graph:
    return read_graph(io.StringIO(text))
