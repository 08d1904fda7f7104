import io
import itertools
import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from bdtw.corpus import path_graph
from bdtw.errors import FormatError
from bdtw.game import _Solver, _stage
from bdtw.graphs import (
    Graph,
    bit_indices,
    bitmask,
    blocks_boundary,
    boundary,
    closure,
    components,
    connected_components,
    dumps_graph,
    incident_edges,
    is_connected_set,
    loads_graph,
    read_graph,
)
from bdtw.pre_tree import dumps_ptd, from_tree_decomposition, loads_ptd
from bdtw.tree_decomp import dumps_td, loads_td
from conftest import small_graph_corpus
from oracles import (
    _components_without,
    all_parts,
    boundary_oracle,
    connected_vertex_subsets,
    part_table_flood,
    part_table_oracle,
)
from strats import graphs, graphs_with_cop_sets, graphs_with_edge_sets


class TestGraphBasics:
    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_edge_ids_are_positions(self, p3):
        assert p3.edge_id(0, 1) == 0
        assert p3.edge_id(2, 1) == 1
        assert p3.endpoints(1) == (1, 2)

    def test_mask_round_trip(self, p3c):
        mask = p3c.mask_of([(0, 0), (1, 2)])
        assert p3c.edge_ids(mask) == (1, 2)


class TestClosure:
    def test_single_edge(self, e1):
        g = closure(e1)
        assert g.edges == ((0, 1), (0, 0), (1, 1))

    def test_isolated_vertex(self):
        g = closure(Graph(1, []))
        assert g.edges == ((0, 0),)

    def test_path(self, p3):
        g = closure(p3)
        assert g.edges == ((0, 1), (1, 2), (0, 0), (1, 1), (2, 2))

    def test_existing_loops_kept(self):
        g = closure(Graph(2, [(0, 0)]))
        assert g.edges == ((0, 0), (1, 1))


class TestIncidentEdges:
    def test_path_middle(self, p3):
        assert p3.edge_ids(p3.incident_mask(1)) == (0, 1)

    def test_closure_endpoint(self, p3c):
        assert p3c.edge_ids(p3c.incident_mask(0)) == (0, 2)

    def test_isolated_vertex_empty(self):
        g = Graph(2, [(0, 0)])
        assert g.incident_mask(1) == 0

    def test_unknown_vertex(self, p3):
        with pytest.raises(IndexError):
            p3.incident_mask(5)


class TestConnectedComponents:
    def test_path(self, p3):
        assert connected_components(p3) == [0b111]

    def test_two_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [0b0011, 0b1100]

    def test_edgeless(self):
        g = Graph(2, [])
        assert connected_components(g) == [0b01, 0b10]

    @given(graphs())
    def test_matches_search_oracle(self, g):
        assert connected_components(g) == [bitmask(c) for c in _components_without(g, frozenset())]


class TestIsConnectedSet:
    def test_matches_search_oracle(self):
        for g in small_graph_corpus(4) + [closure(x) for x in small_graph_corpus(3)]:
            connected = {bitmask(u) for u in connected_vertex_subsets(g, g.n)}
            assert is_connected_set(g, 0)
            for u in range(1, 1 << g.n):
                assert is_connected_set(g, u) == (u in connected), (g, u)


class TestBoundary:
    def test_path_single_edge(self, p3):
        # Expected value computed by evaluating the definition literally.
        assert boundary_oracle(p3, {0}) == {1}
        assert boundary(p3, p3.edge_mask([0])) == 0b010

    def test_empty_set(self, p3):
        assert boundary(p3, 0) == 0

    def test_full_set(self, p3):
        assert boundary(p3, p3.full_mask) == 0

    @given(graphs_with_edge_sets())
    def test_matches_oracle(self, gm):
        g, mask = gm
        assert boundary(g, mask) == bitmask(boundary_oracle(g, set(g.edge_ids(mask))))

    @given(graphs_with_edge_sets())
    def test_symmetric_in_complement(self, gm):
        g, mask = gm
        assert boundary(g, mask) == boundary(g, g.full_mask & ~mask)


@st.composite
def graphs_with_block_tuples(draw, max_n=5):
    """A host with loops and a tuple of edge masks among which overlapping,
    empty, repeated and non-covering blocks all occur."""
    g = draw(graphs(max_n=max_n))
    blocks = draw(st.lists(st.integers(0, g.full_mask), max_size=5))
    extra = draw(st.lists(st.sampled_from(blocks + [0, g.full_mask]), max_size=3))
    return g, tuple(draw(st.permutations(blocks + extra)))


class TestBlocksBoundary:
    @given(graphs_with_block_tuples())
    # Vertex 1 is split only by the last block, after an empty one and one
    # that holds both its edges.
    @example((Graph(3, [(0, 1), (1, 2)]), (0b11, 0, 0b01)))
    @settings(max_examples=300)
    def test_matches_union_of_oracle_boundaries(self, gb):
        g, blocks = gb
        want = set()
        for b in blocks:
            want |= boundary_oracle(g, set(g.edge_ids(b)))
        assert blocks_boundary(g, blocks) == bitmask(want)

    def test_no_blocks(self, p3):
        assert blocks_boundary(p3, ()) == 0


def part_table(g, x_mask):
    """The parts under x_mask that are no capture, by lowest edge: the
    edge view of the library's components of G - x, each component's
    incident edges, for the components with an edge."""
    return tuple(p for p in (incident_edges(g, c) for c in components(g, x_mask)) if p)


def part_of(g, cops, e):
    """Edge mask of the part holding edge e relative to the cop set: the
    edge view of the robber's stage set from an endpoint of e, or e alone
    when both ends are under cops (a capture)."""
    x_mask = bitmask(cops)
    ends = bitmask(g.endpoints(e)) & ~x_mask
    return incident_edges(g, _stage(g, x_mask, ends)) if ends else 1 << e


def edge_parts(g, x_mask):
    """Each edge's part under the cop set x_mask, by edge id."""
    return tuple(part_of(g, bit_indices(x_mask), e) for e in range(g.m))


class TestEdgeComponentGraph:
    def test_p3_closure_center_cop(self, p3c):
        # Hand evaluation: cop on b splits the path into the two end pockets
        # plus the single-edge part bb.
        table = part_table(p3c, bitmask({1}))
        left = p3c.mask_of([(0, 1), (0, 0)])
        right = p3c.mask_of([(1, 2), (2, 2)])
        bb = p3c.mask_of([(1, 1)])
        assert table == (left, right)
        assert edge_parts(p3c, bitmask({1})) == (left, right, left, bb, right)
        assert all_parts(p3c, bitmask({1})) == (left, right, bb)

    def test_no_cops_gives_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        table = part_table(g, 0)
        assert table == (0b01, 0b10)
        assert edge_parts(g, 0) == (0b01, 0b10)

    def test_k3_two_cops(self, k3):
        # K3 edges: ab=0, ac=1, bc=2.  Cops on a,b: ab is its own part, the
        # c-pocket carries both remaining edges.
        table = part_table(k3, bitmask({0, 1}))
        assert edge_parts(k3, bitmask({0, 1})) == (0b001, 0b110, 0b110)
        assert table == (0b110,)
        assert components(k3, bitmask({0, 1})) == (0b100,)

    def test_parts_partition_edges_exhaustive(self):
        for g in small_graph_corpus(3) + [closure(x) for x in small_graph_corpus(3)]:
            for size in range(g.n + 1):
                for cops in itertools.combinations(g.vertices, size):
                    table = part_table(g, bitmask(cops))
                    of_edge = edge_parts(g, bitmask(cops))
                    parts = all_parts(g, bitmask(cops))
                    union = 0
                    for mask in parts:
                        assert union & mask == 0
                        union |= mask
                    assert union == g.full_mask
                    assert set(table) <= set(parts)
                    for e in range(g.m):
                        assert of_edge[e] >> e & 1
                        for e2 in g.edge_ids(of_edge[e]):
                            assert of_edge[e2] == of_edge[e]

    @given(graphs_with_cop_sets())
    def test_single_edge_parts_inside_cops(self, gc):
        g, cops = gc
        table = part_table(g, bitmask(cops))
        outside = 0
        for mask in table:
            outside |= mask
            for e in g.edge_ids(mask):
                u, v = g.endpoints(e)
                assert u not in cops or v not in cops
        for e in g.edge_ids(g.full_mask & ~outside):
            assert part_of(g, cops, e) == 1 << e
            u, v = g.endpoints(e)
            assert u in cops and v in cops


class TestRobberComponent:
    def test_p3_closure(self, p3c):
        assert part_of(p3c, {1}, 0) == p3c.mask_of([(0, 1), (0, 0)])

    def test_no_cops_whole_component(self, p3):
        assert part_of(p3, set(), 1) == p3.full_mask

    def test_captured_single_edge(self, e1c):
        assert part_of(e1c, {0, 1}, 0) == e1c.mask_of([(0, 1)])

    @given(graphs_with_cop_sets())
    def test_membership_and_consistency(self, gc):
        g, cops = gc
        for e in range(g.m):
            part = part_of(g, cops, e)
            assert part >> e & 1
            for e2 in g.edge_ids(part):
                assert part_of(g, cops, e2) == part

    @given(graphs_with_cop_sets())
    @settings(max_examples=50)
    def test_refinement_under_more_cops(self, gc):
        g, cops = gc
        for extra in range(g.n):
            bigger = cops | {extra}
            for e in range(g.m):
                finer = part_of(g, bigger, e)
                coarser = part_of(g, cops, e)
                assert finer & ~coarser == 0


def _random_graphs(count: int, seed: int) -> list[Graph]:
    """Graphs on 0..8 vertices, half with loops; the edges of one vertex
    are dropped in every third graph, so isolated vertices occur."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = i % 9
        loops = i % 2 == 1
        p = rng.uniform(0.1, 0.7)
        edges = [(u, v) for u in range(n) for v in range(u, n)
                 if (u != v or loops) and rng.random() < p]
        if n and i % 3 == 0:
            bare = rng.randrange(n)
            edges = [e for e in edges if bare not in e]
        out.append(Graph(n, edges))
    return out


class TestPartTable:
    # The parts under a cop set are the edge view of the library's
    # components (part_table above); they must be what the two reference
    # searches give, and the components their free endpoints.
    def test_matches_bfs_oracle(self):
        for g in _random_graphs(200, seed=11):
            for x_mask in range(1 << g.n):
                table = part_table(g, x_mask)
                masks, singles, of_edge, vertex_sets, kinds = part_table_oracle(g, x_mask)
                assert all_parts(g, x_mask) == tuple(mask for mask in masks if mask), (g, x_mask)
                assert edge_parts(g, x_mask) == tuple(masks[i] for i in of_edge), (g, x_mask)
                assert table == tuple(
                    mask for mask, kind in zip(masks, kinds) if kind == "component" and mask)
                assert set(components(g, x_mask)) == {
                    bitmask(verts) & ~x_mask
                    for verts, kind in zip(vertex_sets, kinds) if kind == "component"
                }, (g, x_mask)
                for mask, single in zip(masks, singles):
                    if mask:
                        # A capture is a single edge whose ends are both cops.
                        ends = bitmask(v for e in g.edge_ids(mask) for v in g.endpoints(e))
                        assert single == (not ends & ~x_mask), (g, x_mask, mask)

    def test_cached_per_cop_set(self, p3c):
        assert components(p3c, 0b010) is components(p3c, 0b010)

    def test_matches_the_edge_flood(self):
        # The edge view of components must give what the edge-mask flood
        # gave, on plain hosts and closures, for every cop set.
        for g in _random_graphs(200, seed=12):
            for host in (g, closure(g)):
                for x_mask in range(1 << g.n):
                    assert part_table(host, x_mask) == part_table_flood(host, x_mask), (
                        host, x_mask)


class TestComponents:
    def test_components_of_g_minus_x(self):
        for g in _random_graphs(200, seed=13):
            everyone = (1 << g.n) - 1
            for x_mask in range(1 << g.n):
                comps = components(g, x_mask)
                union = 0
                for comp in comps:
                    assert union & comp == 0
                    union |= comp
                    assert is_connected_set(g, comp)
                    # No free vertex outside comp is next to it.
                    outside = everyone & ~x_mask & ~comp
                    assert all(not outside & bitmask(g.neighbors(v)) for v in bit_indices(comp))
                assert union == everyone & ~x_mask

    def test_ordered_by_lowest_incident_edge(self, p3):
        # P3 plus an edgeless vertex 3 and a vertex 4 with only a loop:
        # edges ab=0, bc=1, ee=2.  With the cop on b, {a} sorts by ab, {c}
        # by bc, {e} by its loop and {d} as edge m + 3 = 6.
        g = Graph(5, list(p3.edges) + [(4, 4)])
        assert components(g, 0b00010) == (0b00001, 0b00100, 0b10000, 0b01000)

    def test_same_order_on_the_closure(self):
        # The closure's new loops come after g's edges in vertex order, so
        # each cop set's components sort alike on both hosts; an unshared
        # closure shows it.
        for g in _random_graphs(200, seed=14):
            c = closure(g)
            unshared = Graph(c.n, c.edges)
            for x_mask in range(1 << g.n):
                assert components(g, x_mask) == components(unshared, x_mask), (g, x_mask)

    def test_closure_shares_the_vertex_tables_only(self, p3):
        # The component and segment tables and the non-monotone stage
        # lists and bounds depend on the non-loop adjacency alone; the
        # parts depend on the host's own edges.
        c = closure(p3)
        assert c._comp_cache is p3._comp_cache
        assert c._seg_cache is p3._seg_cache
        assert c._stage_lists is p3._stage_lists
        assert c._lost is p3._lost
        assert components(c, 0b010) is components(p3, 0b010)
        assert part_table(c, 0b010) != part_table(p3, 0b010)

    def test_closure_solvers_share_stages_but_not_stage_bounds(self):
        # The non-monotone solvers on C5 and its closure, alone and with an
        # edgeless vertex, read one segment table, one stage list per
        # position and one bounds table.  The closure's solve after the
        # plain one reads the plain costs, which are its own (game
        # docstring), so it expands at most the start of each edgeless
        # vertex, which reaches no stage: none when two cops lose at the
        # cycle, and one for three cops.  Each keeps its own stage bounds.
        cycle = [(v, (v + 1) % 5) for v in range(5)]
        for n, k in ((5, 2), (6, 2), (6, 3)):
            g = Graph(n, cycle)
            c = closure(g)
            plain, shut = _Solver(g, k, False), _Solver(c, k, False)
            won = plain.game_cost(7) is not None
            assert shut.game_cost(7) == (max(plain.game_cost(7), 1) if won else None)
            assert c._seg_cache is g._seg_cache
            assert shut._stage_lists is plain._stage_lists
            assert shut.bounds is plain.bounds
            assert plain._stage_lists and set(plain._stage_bounds) <= set(g._seg_cache)
            for stages in plain._stage_lists.values():
                assert all(stage in g._seg_cache for stage in stages)
            assert shut.expansions == (n - 5 if won else 0)
            assert shut._stage_bounds is not plain._stage_bounds
            assert plain._stage_bounds and not shut._stage_bounds


class TestPaceFormat:
    def test_round_trip(self, p3c):
        assert loads_graph(dumps_graph(p3c)) == p3c

    def test_reads_comments_and_loops(self):
        text = "c a path with loops\np tw 2 2\n1 2\n2 2\n"
        g = loads_graph(text)
        assert g.edges == ((0, 1), (1, 1))

    def test_rejects_missing_header(self):
        with pytest.raises(FormatError):
            read_graph(io.StringIO("1 2\n"))

    def test_rejects_wrong_count(self):
        with pytest.raises(FormatError):
            loads_graph("p tw 2 2\n1 2\n")

    def test_rejects_bad_vertex(self):
        with pytest.raises(FormatError):
            loads_graph("p tw 2 1\n1 3\n")

    @pytest.mark.parametrize("text", ["p tw 99999999999999999999 0\n", "p tw 1000001 0\n"],
                             ids=["huge", "above-cap"])
    def test_header_vertex_count_costs_no_memory(self, text):
        # A Graph allocates per vertex, so the count is checked first.
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="^line 1: vertex count"):
                loads_graph(text)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("text", ["p tw 2 x\n", "p tw 2 1\n1 y\n"],
                             ids=["header", "edge"])
    def test_rejects_non_integer_token(self, text):
        with pytest.raises(FormatError):
            loads_graph(text)


def padded(text: str) -> str:
    """text with a blank line, a blank line of spaces and three kinds of
    `c` comment line before each of its lines, so line i moves to 6i."""
    return "".join(f"\n  \nc note\n  c indented\ncx\n{line}"
                   for line in text.splitlines(True))


class TestRecordSyntax:
    """One record syntax holds for `.gr`, `.td` and `.ptd` texts: blank
    lines and `c` comments may stand anywhere, and errors name physical
    lines."""

    host = closure(path_graph(3))
    td = loads_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n", path_graph(3))

    def test_padding_reads_the_same(self):
        assert loads_graph(padded(dumps_graph(self.host))) == self.host
        td = loads_td(padded(dumps_td(self.td)), self.td.host)
        assert (td.bags, td.tree.parent) == (self.td.bags, self.td.tree.parent)
        ptd = from_tree_decomposition(self.td)
        back = loads_ptd(padded(dumps_ptd(ptd)))
        assert (back.host, back.bags, back.cones) == (ptd.host, ptd.bags, ptd.cones)
        assert back.tree.parent == ptd.tree.parent

    @pytest.mark.parametrize("fmt, bad, match", [
        ("gr", "1 9", "vertex out of range"),
        ("td", "b 3 9", "bag vertex outside 1..3"),
        ("ptd", "n 0 0 :", "duplicate node 0"),
        ("ptd", "9 9", "vertex out of range"),
    ], ids=["gr", "td", "ptd-node", "ptd-graph-line"])
    def test_bad_record_names_its_physical_line(self, fmt, bad, match):
        text, load = {
            "gr": (dumps_graph(self.host), loads_graph),
            "td": (dumps_td(self.td), lambda text: loads_td(text, self.td.host)),
            "ptd": (dumps_ptd(from_tree_decomposition(self.td)), loads_ptd),
        }[fmt]
        text = padded(text + bad + "\n")
        line = text.count("\n")
        with pytest.raises(FormatError, match=f"^line {line}: {match}"):
            load(text)
