"""Small-graph corpus generation for sweeps and tests."""

from __future__ import annotations

import itertools
from typing import Callable

from .graphs import MAX_VERTICES, Graph

# The cap on N in all-graphs:N, which builds 2^(N(N-1)/2) graphs.  A corpus
# graph has at most MAX_VERTICES vertices, as a graph file does.
MAX_ALL_GRAPHS_VERTICES = 6


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])

def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])

def star_graph(n: int) -> Graph:
    """One center (vertex 0) and n-1 rays."""
    return Graph(n, [(0, i) for i in range(1, n)])

def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))

def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])

def grid_graph(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def all_graphs(n: int) -> list[Graph]:
    """All labeled loop-free graphs on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        out.append(Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1]))
    return out


NAMED = {
    "E1": lambda: Graph(2, [(0, 1)]),
    "P3": lambda: path_graph(3),
    "P4": lambda: path_graph(4),
    "P5": lambda: path_graph(5),
    "P6": lambda: path_graph(6),
    "C3": lambda: cycle_graph(3),
    "C4": lambda: cycle_graph(4),
    "C5": lambda: cycle_graph(5),
    "C6": lambda: cycle_graph(6),
    "K2": lambda: complete_graph(2),
    "K3": lambda: complete_graph(3),
    "K4": lambda: complete_graph(4),
    "K2,3": lambda: complete_bipartite(2, 3),
    "GRID2x3": lambda: grid_graph(2, 3),
}


def named_graph(name: str) -> Graph:
    try:
        return NAMED[name]()
    except KeyError:
        raise ValueError(f"unknown graph name {name!r}; known: {sorted(NAMED)}") from None


def parse_range(text: str, low: int, message: str) -> range:
    """The integers of a value 'a' or a range 'a-b'; other text, or a range
    that is empty or starts below `low`, raises ValueError(message)."""
    lo, dash, hi = text.partition("-")
    try:
        values = range(int(lo), int(hi if dash else lo) + 1)
    except ValueError:
        raise ValueError(message) from None
    if not values or values.start < low:
        raise ValueError(message)
    return values


def _capped(spec: str, n: int, cap: int = MAX_VERTICES) -> int:
    if n > cap:
        raise ValueError(f"corpus spec {spec!r} has a graph above the cap of {cap} vertices")
    return n


def _sized(family: str, maker: Callable[[int], Graph]) -> Callable[[str], list[tuple[str, Graph]]]:
    def instances(arg: str) -> list[tuple[str, Graph]]:
        spec = f"{family}:{arg}"
        sizes = parse_range(arg, 0, f"corpus range {arg!r} is not a nonempty range")
        _capped(spec, sizes[-1])
        try:
            return [(f"{family}-{n}", maker(n)) for n in sizes]
        except ValueError as exc:
            raise ValueError(f"corpus spec {spec!r}: {exc}") from None
    return instances


def _named(arg: str) -> list[tuple[str, Graph]]:
    """The graphs of a comma-separated list of names.  A piece joins the
    name before it when the two make a known name, so K2,3 stays whole."""
    names: list[str] = []
    for piece in arg.split(","):
        if names and f"{names[-1]},{piece.strip()}" in NAMED:
            names[-1] += f",{piece.strip()}"
        else:
            names.append(piece.strip())
    return [(name, named_graph(name)) for name in names]


def _all_graphs(arg: str) -> list[tuple[str, Graph]]:
    if not arg.isdecimal():
        raise ValueError(f"corpus spec 'all-graphs:{arg}' needs a vertex count")
    n = _capped(f"all-graphs:{arg}", int(arg), MAX_ALL_GRAPHS_VERTICES)
    return [(f"all-graphs-{n}#{i}", g) for i, g in enumerate(all_graphs(n))]


def _grids(arg: str) -> list[tuple[str, Graph]]:
    shapes = []
    for chunk in arg.split(","):
        r, _, c = chunk.partition("x")
        try:
            r, c = int(r), int(c)
        except ValueError:
            raise ValueError(f"grid shape {chunk!r} is not ROWSxCOLS") from None
        if r < 0 or c < 0:
            raise ValueError(f"grid shape {chunk!r} has a negative row or column count")
        _capped(f"grids:{arg}", r * c)
        shapes.append((r, c))
    return [(f"grid-{r}x{c}", grid_graph(r, c)) for r, c in shapes]


# Corpus family -> a function from the spec's argument to (name, graph) pairs.
FAMILIES: dict[str, Callable[[str], list[tuple[str, Graph]]]] = {
    "all-graphs": _all_graphs,
    "named": _named,
    "paths": _sized("paths", path_graph),
    "cycles": _sized("cycles", cycle_graph),
    "stars": _sized("stars", star_graph),
    "complete": _sized("complete", complete_graph),
    "grids": _grids,
}


def corpus_instances(text: str) -> list[tuple[str, Graph]]:
    """The (name, graph) pairs of a corpus spec: 'family:argument', e.g.
    'all-graphs:3', 'named:K4,K2,3', 'paths:2-5', 'cycles:3-6', 'stars:3-5',
    'complete:2-4', 'grids:2x2,2x3', or a bare graph name.  Raises
    ValueError for an unknown family or graph, for an empty range and, before
    building any graph, for a graph past the size caps above."""
    if ":" not in text:
        if text in NAMED:
            return [(text, named_graph(text))]
        raise ValueError(f"corpus spec {text!r} needs 'family:params' or a graph name")
    family, _, arg = text.partition(":")
    family = family.strip()
    if family not in FAMILIES:
        raise ValueError(f"unknown corpus family {family!r}")
    return FAMILIES[family](arg.strip())
