"""Rooted trees, tree decompositions, validation, and bag tightening.

Bags are vertex masks.  Width is the maximum bag size minus one.  Depth is
measured at the leaves: the largest number of distinct vertices collected in
the bags along a root-to-leaf path.  A childless root counts as a leaf.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .errors import FormatError, NotApplicableError
from .graphs import Graph, bit_indices, bitmask, is_connected_set, records
from .validation import Report


class RootedTree:
    """A rooted tree over dense node ids; the root is its own parent."""

    __slots__ = ("parent", "root", "children", "depth", "_level_order")

    def __init__(self, parent: Sequence[int]):
        parent = tuple(parent)
        n = len(parent)
        roots = [t for t in range(n) if parent[t] == t]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {roots}")
        children: list[list[int]] = [[] for _ in range(n)]
        for t in range(n):
            p = parent[t]
            if not 0 <= p < n:
                raise ValueError(f"parent of {t} out of range")
            if t != p:
                children[p].append(t)
        depth = [-1] * n
        depth[roots[0]] = 0
        order = [roots[0]]
        for t in order:
            for c in children[t]:
                depth[c] = depth[t] + 1
                order.append(c)
        if len(order) != n:
            raise ValueError("tree is not connected (or has a parent cycle)")
        self.parent = parent
        self.root = roots[0]
        self.children = tuple(tuple(sorted(cs)) for cs in children)
        self.depth = tuple(depth)
        self._level_order = tuple(sorted(order, key=lambda t: (depth[t], t)))

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def nodes(self) -> range:
        return range(len(self.parent))

    def leaves(self) -> list[int]:
        return [t for t in self.nodes if not self.children[t]]

    def edges(self) -> list[tuple[int, int]]:
        """(parent, child) pairs, ordered by child id."""
        return [(self.parent[t], t) for t in self.nodes if t != self.root]

    def path_from_root(self, t: int) -> tuple[int, ...]:
        parent, root = self.parent, self.root
        path = [t]
        while t != root:
            t = parent[t]
            path.append(t)
        path.reverse()
        return tuple(path)

    def path_totals(self, weights: Sequence[int]) -> list[int]:
        """Per node, the sum of the weights on its root path (one top-down
        pass)."""
        totals = [0] * self.size
        for t in self._level_order:
            totals[t] = weights[t] if t == self.root else totals[self.parent[t]] + weights[t]
        return totals

    def path_unions(self, masks: Sequence[int]) -> list[int]:
        """Per node, the union of the masks on its root path (one top-down
        pass)."""
        unions = [0] * self.size
        for t in self._level_order:
            unions[t] = masks[t] if t == self.root else unions[self.parent[t]] | masks[t]
        return unions

    def gca(self, a: int, b: int) -> int:
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
        return a

    def path_between(self, a: int, b: int) -> tuple[int, ...]:
        """Nodes on the unique a-b path, in order: a's root path reversed
        and cut just below the greatest common ancestor (gca), then b's
        root path from the gca on."""
        i = self.depth[self.gca(a, b)]
        return self.path_from_root(a)[:i:-1] + self.path_from_root(b)[i:]

    def bfs_nodes(self) -> list[int]:
        """Level order from the root; ties within a level by node id."""
        return list(self._level_order)

    def induced_connected(self, nodes: Iterable[int]) -> bool:
        """Whether the node set induces a connected subtree.  A node of the
        set is a top when it is the root or its parent lies outside the
        set; each component of the set has exactly one top, so the set is
        connected exactly when it has at most one."""
        ns = set(nodes)
        return sum(t == self.root or self.parent[t] not in ns for t in ns) <= 1


@dataclass(frozen=True)
class TreeDecomposition:
    tree: RootedTree
    host: Graph
    bags: tuple[int, ...]

    def __post_init__(self):
        if len(self.bags) != self.tree.size:
            raise ValueError("one bag per tree node required")


def validate_td(td: TreeDecomposition,
                changed: tuple[Iterable[int], int] | None = None) -> Report:
    """Check vertex/edge coverage (T1) and connectivity of every vertex
    trace (T2) at a change.

    `changed` is (bag nodes, vertex mask), a superset of the bags and
    vertices in which td differs from a decomposition on the same tree and
    host that passes the check.  Only the checks it names inputs of are
    made: the T1 vertex range of the named bags, and the coverage, the
    incident edges and the trace of the named vertices.  An unchanged input
    cannot fail what the earlier decomposition passed, so the report is the
    one the full check gives; the premise is not checked here.  Without
    `changed` every bag and vertex is named, which is the full check, as in
    `pre_tree.validate_ptd`.
    """
    report = Report()
    g, tree, bags = td.host, td.tree, td.bags
    full = (1 << g.n) - 1
    nodes, verts = changed or (tree.nodes, full)
    traces = {v: [t for t in tree.nodes if bags[t] >> v & 1] for v in bit_indices(verts & full)}
    for t in sorted(nodes):
        for v in bit_indices(bags[t] & ~full):
            report.add("T1", "bags", f"bag vertex {v} not in host")
    for v, trace in traces.items():
        if not trace:
            report.add("T1", f"vertex {v}", "vertex appears in no bag")
    incident = 0
    for v in traces:
        incident |= g.incident_mask(v)
    for u, v in g.edge_pairs(incident):
        uv = 1 << u | 1 << v
        if not any(b & uv == uv for b in bags):
            report.add("T1", f"edge {u}-{v}", "no bag contains both endpoints")
    for v, trace in traces.items():
        if trace and not tree.induced_connected(trace):
            report.add("T2", f"vertex {v}", f"trace {trace} is disconnected")
    return report


def td_width(td: TreeDecomposition) -> int:
    """Largest bag size minus one; also pre_tree.ptd_width."""
    return max(b.bit_count() for b in td.bags) - 1


def td_depth(td: TreeDecomposition) -> int:
    """Max over root paths of the number of distinct vertices on them."""
    return max(u.bit_count() for u in td.tree.path_unions(td.bags))


def check_connected_trace(td: TreeDecomposition, u: int) -> bool:
    """Whether the nodes whose bags meet the vertex mask u induce a
    connected subtree.

    Only defined for u connected in the host; holds in every valid
    decomposition, so this doubles as a property check.
    """
    if not is_connected_set(td.host, u):
        raise NotApplicableError("u must be connected in the host graph")
    trace = [t for t in td.tree.nodes if u & td.bags[t]]
    return td.tree.induced_connected(trace)


def tighten(td: TreeDecomposition) -> TreeDecomposition:
    """Greedily remove vertices from bags while validate_td accepts the
    result.

    Scans (node, vertex) pairs in increasing order and repeats to a fixpoint,
    so the result is deterministic.  Width and depth never increase.  Each
    candidate differs from the current, valid, decomposition only in v at
    bag t, so validate_td checks only that change.
    """
    current = td
    changed = True
    while changed:
        changed = False
        for t in td.tree.nodes:
            for v in bit_indices(current.bags[t]):
                bags = list(current.bags)
                bags[t] &= ~(1 << v)
                smaller = TreeDecomposition(td.tree, td.host, tuple(bags))
                if validate_td(smaller, ((t,), 1 << v)).ok:
                    current = smaller
                    changed = True
    return current


# ---------------------------------------------------------------------------
# PACE-style .td files, extended with an `r <root-bag-id>` line.  Bag ids and
# vertices are 1-based in files.  The writer adds a `c depth <d>` comment.

def write_td(td: TreeDecomposition, out: IO[str]) -> None:
    out.write(f"c depth {td_depth(td)}\n")
    out.write(f"s td {td.tree.size} {td_width(td) + 1} {td.host.n}\n")
    for t in td.tree.nodes:
        verts = " ".join(str(v + 1) for v in bit_indices(td.bags[t]))
        out.write(f"b {t + 1}{' ' + verts if verts else ''}\n")
    for p, c in td.tree.edges():
        out.write(f"{p + 1} {c + 1}\n")
    out.write(f"r {td.tree.root + 1}\n")


def dumps_td(td: TreeDecomposition) -> str:
    buf = io.StringIO()
    write_td(td, buf)
    return buf.getvalue()


def read_td(inp: Iterable[str], host: Graph) -> TreeDecomposition:
    n_bags = width_plus_one = root_id = None
    bags: dict[int, int] = {}
    links: list[tuple[int, int, int]] = []  # (line, bag, bag)
    for lineno, parts in records(inp):
        try:
            if parts[0] == "s":
                if n_bags is not None:
                    raise FormatError(f"line {lineno}: repeated header")
                if len(parts) != 5 or parts[1] != "td":
                    raise FormatError(f"line {lineno}: expected 's td <bags> <w+1> <n>'")
                n_bags, width_plus_one = int(parts[2]), int(parts[3])
                if int(parts[4]) != host.n:
                    raise FormatError(
                        f"line {lineno}: decomposition is for {parts[4]} vertices, host has {host.n}"
                    )
            elif parts[0] == "b":
                if len(parts) < 2:
                    raise FormatError(f"line {lineno}: expected 'b <id> <vertices...>'")
                bid = int(parts[1]) - 1
                if bid in bags:
                    raise FormatError(f"line {lineno}: duplicate bag {bid + 1}")
                verts = [int(v) for v in parts[2:]]
                if any(not 1 <= v <= host.n for v in verts):
                    raise FormatError(f"line {lineno}: bag vertex outside 1..{host.n}")
                bags[bid] = bitmask(v - 1 for v in verts)
            elif parts[0] == "r":
                if root_id is not None:
                    raise FormatError(f"line {lineno}: repeated root line")
                if len(parts) != 2:
                    raise FormatError(f"line {lineno}: expected 'r <id>'")
                root_id = int(parts[1]) - 1
            else:
                if len(parts) != 2:
                    raise FormatError(f"line {lineno}: expected a tree edge '<id> <id>'")
                links.append((lineno, int(parts[0]) - 1, int(parts[1]) - 1))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    if n_bags is None:
        raise FormatError("missing 's td' header")
    # Bag ids are distinct, so this compares against the header's count
    # without building anything of that size.
    if n_bags < 1 or len(bags) != n_bags or any(not 0 <= b < n_bags for b in bags):
        raise FormatError("bag ids must be 1..<#bags>, with at least one bag")
    largest = max((b.bit_count() for b in bags.values()), default=0)
    if width_plus_one != largest:
        raise FormatError(f"header declares bag size {width_plus_one}, largest bag has {largest}")
    if len(links) != n_bags - 1:
        raise FormatError(f"{n_bags} bags need {n_bags - 1} tree edges, found {len(links)}")
    if root_id is None:
        root_id = 0
    if not 0 <= root_id < n_bags:
        raise FormatError(f"root bag {root_id + 1} is not in 1..{n_bags}")
    adj: dict[int, list[int]] = {t: [] for t in range(n_bags)}
    for lineno, a, b in links:
        if not (0 <= a < n_bags and 0 <= b < n_bags):
            raise FormatError(
                f"line {lineno}: tree edge ({a + 1},{b + 1}) references unknown bag")
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * n_bags
    parent[root_id] = root_id
    order = [root_id]
    for t in order:
        for w in adj[t]:
            if parent[w] < 0:
                parent[w] = t
                order.append(w)
    if len(order) != n_bags:
        raise FormatError("tree edges do not form a tree on the bags")
    tree = RootedTree(parent)
    return TreeDecomposition(tree, host, tuple(bags[t] for t in range(n_bags)))


def loads_td(text: str, host: Graph) -> TreeDecomposition:
    return read_td(io.StringIO(text), host)
