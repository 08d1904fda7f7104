"""Pre-tree decompositions: a rooted tree with bags and directed edge cones.

Each directed tree edge (s, t) carries a cone, an edge set of the host graph
(the part of the graph "behind" t as seen from s).  The local blocks at a
node are its cones toward all neighbors, parent first; at a childless
non-root node the second block is the complement of its cone toward the
parent.  Bags are vertex masks.  An edge is exact when its two opposite
cones partition the host's edges; the whole decomposition is exact when
additionally every bag equals the boundary of its local blocks.

Hosts are normally closure graphs (a self-loop at every vertex), which makes
vertices hideable positions; the validators themselves are host-agnostic.

Each decomposition memoizes the boundary of every node's local blocks
(`local_boundary`) in its `_boundaries`, which equality, `repr` and the
text format ignore.  The memo holds only while the tree, host and cones stay
as they were built: no cone map is mutated after construction, and
`monotonize.apply_step`, which makes each step's decomposition, writes
changed cones into a copy of the map and gives the copy a memo without the
entries of the nodes whose cones it wrote.  Bags may be replaced, since no
boundary reads them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .errors import FormatError, NotApplicableError
from .graphs import (Graph, _graph_from_records, bit_indices, bitmask, blocks_boundary, closure,
                     connected_components, incident_edges, records, write_graph)
from .partitions import EdgePartition, partition_defects
from .tree_decomp import RootedTree, TreeDecomposition, td_width, tighten, validate_td
from .validation import Report


@dataclass
class PreTreeDecomposition:
    tree: RootedTree
    host: Graph
    bags: tuple[int, ...]
    cones: dict[tuple[int, int], int]
    # Node -> local_boundary; see the module docstring.
    _boundaries: dict[int, int] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        if len(self.bags) != self.tree.size:
            raise ValueError("one bag per tree node required")
        expected = set()
        for p, c in self.tree.edges():
            expected.add((p, c))
            expected.add((c, p))
        if set(self.cones) != expected:
            raise ValueError("cones must cover every directed tree edge exactly")
        for key, mask in self.cones.items():
            if mask & ~self.host.full_mask:
                raise ValueError(f"cone {key} mentions edges outside the host")

    def cone(self, s: int, t: int) -> int:
        return self.cones[(s, t)]


def local_blocks(ptd: PreTreeDecomposition, t: int) -> tuple[int, ...]:
    """Raw local blocks at t: cones toward neighbors (parent first); at a
    childless non-root node, its parent cone plus that cone's complement."""
    tree, cones = ptd.tree, ptd.cones
    children = tree.children[t]
    if t == tree.root:
        return tuple(cones[(t, c)] for c in children)
    up = cones[(t, tree.parent[t])]
    if not children:
        return (up, ptd.host.full_mask & ~up)
    return (up, *(cones[(t, c)] for c in children))


def local_partition(ptd: PreTreeDecomposition, t: int) -> EdgePartition:
    return EdgePartition(ptd.host, local_blocks(ptd, t))


def local_boundary(ptd: PreTreeDecomposition, t: int) -> int:
    """The boundary of t's local blocks (`graphs.blocks_boundary`),
    computed once per decomposition."""
    b = ptd._boundaries.get(t)
    if b is None:
        b = ptd._boundaries[t] = blocks_boundary(ptd.host, local_blocks(ptd, t))
    return b


# Cone keys and bag nodes in which one decomposition differs from another.
Change = tuple[frozenset[tuple[int, int]], frozenset[int]]


def validate_ptd(ptd: PreTreeDecomposition, changed: Change | None = None) -> Report:
    """Check the axioms PT1-PT4 at a change.

    `changed` is a superset of the change from a decomposition on the same
    tree and host that satisfies the axioms.  Only the checks it names
    inputs of are made: the touched nodes are the ends of its cone keys and
    its bag nodes; PT1 is checked when the root is touched, PT2 and PT3 at
    touched nodes, PT4 on tree edges with a key in it.  An unchanged input
    cannot violate what the earlier decomposition satisfies, so the report
    is the one the full check gives.  Neither premise is checked here; the
    caller keeps them.  Without `changed` the record holds every cone key
    and every node, which is the full check.  Nodes are reported in
    ascending order, tree edges by their child.
    """
    report = Report()
    tree, g = ptd.tree, ptd.host
    root = tree.root
    keys, bags = changed or (ptd.cones.keys(), tree.nodes)
    nodes = sorted({t for key in keys for t in key}.union(bags))
    edges = [(tree.parent[c], c) for c in nodes if c != root
             and ((tree.parent[c], c) in keys or (c, tree.parent[c]) in keys)]

    if root in nodes:
        if ptd.bags[root]:
            report.add("PT1", f"node {root}",
                       f"root bag {list(bit_indices(ptd.bags[root]))} is non-empty")
        child_cones = [ptd.cone(root, c) for c in tree.children[root]]
        for comp in connected_components(g):
            if incident_edges(g, comp) not in child_cones:
                report.add(
                    "PT1",
                    f"component {list(bit_indices(comp))}",
                    "no root child whose cone is exactly this component's edges",
                )

    for t in nodes:
        if t != root and not tree.children[t]:
            up = ptd.cone(tree.parent[t], t)
            if up.bit_count() > 1:
                report.add("PT2", f"leaf {t}", f"cone from parent has {up.bit_count()} edges")

    for t in nodes:
        overlap, missing = partition_defects(g, local_blocks(ptd, t))
        if overlap:
            report.add("PT3", f"node {t}", f"blocks overlap on edges {g.edge_ids(overlap)}")
        if missing:
            ids = g.edge_ids(missing & g.full_mask)
            report.add("PT3", f"node {t}", f"blocks miss edges {ids}")
        if not overlap | missing:
            missing = local_boundary(ptd, t) & ~ptd.bags[t]
            if missing:
                report.add(
                    "PT3",
                    f"node {t}",
                    f"bag {list(bit_indices(ptd.bags[t]))} misses boundary vertices "
                    f"{list(bit_indices(missing))}",
                )

    for p, c in edges:
        both = ptd.cone(p, c) & ptd.cone(c, p)
        if both:
            report.add("PT4", f"edge {p}-{c}", f"opposite cones share edges {g.edge_ids(both)}")
    return report


def is_exact_edge(ptd: PreTreeDecomposition, s: int, t: int) -> bool:
    return ptd.cone(s, t) | ptd.cone(t, s) == ptd.host.full_mask


def is_exact(ptd: PreTreeDecomposition) -> bool:
    if any(not is_exact_edge(ptd, p, c) for p, c in ptd.tree.edges()):
        return False
    return all(ptd.bags[t] == local_boundary(ptd, t) for t in ptd.tree.nodes)


ptd_width = td_width


def _path_sums(tree: RootedTree, bags: Sequence[int]) -> list[int]:
    """Per node, the telescoping bag-difference sum on its root path."""
    return tree.path_totals(
        [0 if t == tree.root else (bags[t] & ~bags[tree.parent[t]]).bit_count()
         for t in tree.nodes]
    )


def ptd_depth(ptd: PreTreeDecomposition) -> int:
    """Max over all nodes of the telescoping bag-difference sum on its root path."""
    return max(_path_sums(ptd.tree, ptd.bags))


def _require_exact_prefix(ptd: PreTreeDecomposition, subtree: Iterable[int]) -> set[int]:
    """Validate the subtree shape the exact-prefix observations assume: it
    contains the root, is upward-closed, keeps either all or none of each
    node's children, and all its internal edges are exact."""
    nodes = set(subtree)
    tree = ptd.tree
    if tree.root not in nodes:
        raise NotApplicableError("subtree must contain the root")
    for t in nodes:
        if t != tree.root and tree.parent[t] not in nodes:
            raise NotApplicableError(f"subtree is not upward-closed at node {t}")
    for t in nodes:
        inside = [c for c in tree.children[t] if c in nodes]
        if inside and len(inside) != len(tree.children[t]):
            raise NotApplicableError(
                f"subtree keeps only some children of node {t}; it must cut at whole nodes"
            )
    for t in nodes:
        if t != tree.root and tree.parent[t] in nodes:
            if not is_exact_edge(ptd, tree.parent[t], t):
                raise NotApplicableError(f"edge {tree.parent[t]}-{t} inside the subtree is not exact")
    return nodes


def check_exact_subtree_partition(ptd: PreTreeDecomposition, subtree: Iterable[int]) -> bool:
    """The cones into the subtree's leaves must partition the host's edges."""
    nodes = _require_exact_prefix(ptd, subtree)
    tree = ptd.tree
    leaves = [t for t in nodes if t != tree.root and not any(c in nodes for c in tree.children[t])]
    return partition_defects(ptd.host, (ptd.cone(tree.parent[t], t) for t in leaves)) == (0, 0)


def check_exact_subtree_depth(ptd: PreTreeDecomposition, subtree: Iterable[int]) -> bool:
    """Boundary traces are connected inside the subtree and the telescoping
    sum along every root path equals the union of boundaries on it."""
    nodes = _require_exact_prefix(ptd, subtree)
    tree = ptd.tree
    # The subtree is upward-closed, so the root path of each of its nodes
    # stays inside it and never reads the zeros outside.
    delta = [local_boundary(ptd, t) if t in nodes else 0 for t in tree.nodes]
    for v in ptd.host.vertices:
        trace = [t for t in nodes if delta[t] >> v & 1]
        if trace and not tree.induced_connected(trace):
            return False
    totals, unions = _path_sums(tree, delta), tree.path_unions(delta)
    return all(totals[t] == unions[t].bit_count() for t in nodes)


def check_exact_path_nesting(ptd: PreTreeDecomposition, path: Sequence[int]) -> bool:
    """Forward cones along a path of exact edges are nested decreasing."""
    tree = ptd.tree
    for a, b in zip(path, path[1:]):
        if tree.parent[a] != b and tree.parent[b] != a:
            raise NotApplicableError(f"{a}-{b} is not a tree edge")
        if not is_exact_edge(ptd, a, b):
            raise NotApplicableError(f"path edge {a}-{b} is not exact")
    for (a, b), (b2, c) in zip(zip(path, path[1:]), zip(path[1:], path[2:])):
        fwd1 = ptd.cone(a, b)
        fwd2 = ptd.cone(b2, c)
        if fwd2 & ~fwd1:
            return False
    return True


def _isolated_loop_vertex(host: Graph, cone_mask: int) -> int | None:
    """The vertex v if cone_mask is exactly one self-loop vv of a vertex whose
    only incident edge is that loop; otherwise None."""
    if cone_mask.bit_count() != 1:
        return None
    e = cone_mask.bit_length() - 1
    u, v = host.endpoints(e)
    if u != v:
        return None
    if host.incident_mask(v) != cone_mask:
        return None
    return v


def to_tree_decomposition(ptd: PreTreeDecomposition, g: Graph) -> TreeDecomposition:
    """Turn an exact pre-tree decomposition of closure(g) into a tree
    decomposition of g on the same tree.

    Bags are copied, except that a leaf whose incoming cone is the lone
    self-loop of an otherwise edgeless vertex gets the bag {v}; without this
    the vertex would appear in no bag.  Width and depth bounds carry over.
    """
    if ptd.host != closure(g):
        raise ValueError("decomposition host must be the closure of g")
    if not is_exact(ptd):
        raise ValueError("input pre-tree decomposition is not exact")
    tree = ptd.tree
    bags = list(ptd.bags)
    for t in tree.nodes:
        if t != tree.root and not tree.children[t]:
            v = _isolated_loop_vertex(ptd.host, ptd.cone(tree.parent[t], t))
            if v is not None:
                bags[t] = 1 << v
    return TreeDecomposition(tree, g, tuple(bags))


def from_tree_decomposition(td: TreeDecomposition) -> PreTreeDecomposition:
    """Build an exact pre-tree decomposition of closure(host) from a valid
    tree decomposition.

    The decomposition is tightened first.  Per component the touched subtree
    is copied under a fresh root; every vertex contributes one leaf carrying
    its self-loop and every non-loop edge one leaf carrying that edge, each
    attached at the shallowest copied node whose bag contains it.  Loops
    already present in the host are covered by the vertex leaves.  Cones
    accumulate from descendant leaves; bags become the local boundaries.
    """
    report = validate_td(td)
    if not report.ok:
        raise ValueError(f"input tree decomposition is invalid:\n{report}")
    td = tighten(td)
    g = td.host
    gc = closure(g)
    full = gc.full_mask

    parent: list[int] = [0]
    # Per node, the cone from its parent into it: a leaf's edge, and later
    # everything at or below the node.
    down: list[int] = [0]

    def new_node(par: int, mask: int = 0) -> int:
        parent.append(par)
        down.append(mask)
        return len(parent) - 1

    for comp in connected_components(g):
        verts = bit_indices(comp)
        if len(verts) == 1 and not g.incident_mask(verts[0]):
            v = verts[0]
            new_node(0, 1 << gc.edge_id(v, v))
            continue
        touched = [t for t in td.tree.nodes if td.bags[t] & comp]
        touched.sort(key=lambda t: (td.tree.depth[t], t))
        top = touched[0]
        copy_of: dict[int, int] = {}
        for t in touched:
            par = 0 if t == top else copy_of[td.tree.parent[t]]
            copy_of[t] = new_node(par)
        for v in verts:
            hosts = [t for t in touched if td.bags[t] >> v & 1]
            t_v = min(hosts, key=lambda t: (td.tree.depth[t], t))
            new_node(copy_of[t_v], 1 << gc.edge_id(v, v))
        for eid, (u, v) in enumerate(g.edges):
            uv = 1 << u | 1 << v
            if u == v or not comp & uv:
                continue
            hosts = [t for t in touched if td.bags[t] & uv == uv]
            t_e = min(hosts, key=lambda t: (td.tree.depth[t], t))
            new_node(copy_of[t_e], 1 << eid)

    tree = RootedTree(parent)
    # Deepest first, each node's cone is complete when it joins its parent's.
    for t in sorted(tree.nodes, key=lambda t: -tree.depth[t]):
        if t != tree.root:
            down[tree.parent[t]] |= down[t]
    cones: dict[tuple[int, int], int] = {}
    for p, c in tree.edges():
        cones[(p, c)] = down[c]
        cones[(c, p)] = full & ~down[c]

    ptd = PreTreeDecomposition(tree, gc, (0,) * tree.size, cones)
    ptd.bags = tuple(local_boundary(ptd, t) for t in tree.nodes)
    return ptd


# ---------------------------------------------------------------------------
# Text format.  A file is self-contained: first the host graph in PACE form
# (1-based vertices), then one `n <id> <parent-id> : <bag vertices>` line per
# node and one `g <s> <t> : <edge ids>` line per directed tree edge.  Node
# ids, bag vertices, and edge ids in the records are the in-memory 0-based
# ids; bag vertices refer to host vertices, edge ids to the graph section's
# edge order.

def write_ptd(ptd: PreTreeDecomposition, out: IO[str]) -> None:
    write_graph(ptd.host, out)
    for t in ptd.tree.nodes:
        verts = " ".join(str(v) for v in bit_indices(ptd.bags[t]))
        par = t if t == ptd.tree.root else ptd.tree.parent[t]
        out.write(f"n {t} {par} :{' ' + verts if verts else ''}\n")
    for (s, t), mask in sorted(ptd.cones.items()):
        ids = " ".join(str(e) for e in ptd.host.edge_ids(mask))
        out.write(f"g {s} {t} :{' ' + ids if ids else ''}\n")


def dumps_ptd(ptd: PreTreeDecomposition) -> str:
    buf = io.StringIO()
    write_ptd(ptd, buf)
    return buf.getvalue()


def read_ptd(inp: Iterable[str]) -> PreTreeDecomposition:
    """The decomposition a `.ptd` file describes, not checked against the
    axioms (`validate_ptd`), as `read_td` does not validate.  Errors name
    the line of the file, in the graph section too; a record with a tag
    other than `n`, `g` or the graph section's is an error."""
    graph_recs: list[tuple[int, list[str]]] = []
    tree_recs: list[tuple[int, list[str]]] = []
    for lineno, parts in records(inp):
        tag = parts[0]
        if tag in ("n", "g"):
            tree_recs.append((lineno, parts))
        elif tag.isalpha() and tag != "p":
            raise FormatError(f"line {lineno}: unknown record '{tag}'")
        else:
            graph_recs.append((lineno, parts))
    host = _graph_from_records(graph_recs)

    nodes: dict[int, tuple[int, int]] = {}
    cones: dict[tuple[int, int], int] = {}
    for lineno, parts in tree_recs:
        tag = parts[0]
        if parts[3:4] != [":"]:
            raise FormatError(f"line {lineno}: expected '{tag} <id> <id> : <ids...>'")
        try:
            a, b = int(parts[1]), int(parts[2])
            ids = [int(x) for x in parts[4:]]
            if tag == "g":
                cone = host.edge_mask(ids)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if tag == "g":
            if (a, b) in cones:
                raise FormatError(f"line {lineno}: second cone for tree edge {a}-{b}")
            cones[(a, b)] = cone
            continue
        if a in nodes:
            raise FormatError(f"line {lineno}: duplicate node {a}")
        if any(not 0 <= v < host.n for v in ids):
            raise FormatError(f"line {lineno}: bag vertex outside 0..{host.n - 1}")
        nodes[a] = (b, bitmask(ids))
    if not nodes or set(nodes) != set(range(len(nodes))):
        raise FormatError("node ids must be dense 0..N-1, with at least one node")
    parent = [nodes[t][0] for t in range(len(nodes))]
    bags = tuple(nodes[t][1] for t in range(len(nodes)))
    try:
        return PreTreeDecomposition(RootedTree(parent), host, bags, cones)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def loads_ptd(text: str) -> PreTreeDecomposition:
    return read_ptd(io.StringIO(text))
