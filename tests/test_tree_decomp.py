import random

import pytest

from bdtw.errors import FormatError, NotApplicableError
from bdtw.graphs import Graph, bit_indices, bitmask
from bdtw.tree_decomp import (
    RootedTree,
    TreeDecomposition,
    check_connected_trace,
    dumps_td,
    loads_td,
    td_depth,
    td_width,
    tighten,
    validate_td,
)
from oracles import connected_vertex_subsets


def td_of(g, parent, bags):
    return TreeDecomposition(RootedTree(parent), g, tuple(bitmask(b) for b in bags))


def elimination_td(rng: random.Random) -> TreeDecomposition:
    """A tree decomposition of a G(n, 1/2) with n in 3..6 from a random
    elimination order, padded with 0-3 bag vertices that keep it valid.

    Node 1 + v holds v and its later neighbours in the filled graph; its
    parent is the node of the earliest later vertex of that bag, or the
    empty root bag, node 0, when there is none."""
    n = rng.randint(3, 6)
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
    order = rng.sample(range(n), n)
    adj = [bitmask(g.neighbors(v)) for v in g.vertices]
    parent, bags = [0] * (n + 1), [0] * (n + 1)
    alive = (1 << n) - 1
    for v in order:
        alive &= ~(1 << v)
        later = adj[v] & alive
        for u in bit_indices(later):
            adj[u] |= later & ~(1 << u)
        bags[1 + v] = later | 1 << v
        if later:
            parent[1 + v] = 1 + next(u for u in order if later >> u & 1)
    tree = RootedTree(parent)
    for _ in range(rng.randint(0, 3)):
        padded = list(bags)
        padded[rng.randrange(n + 1)] |= 1 << rng.randrange(n)
        if validate_td(TreeDecomposition(tree, g, tuple(padded))).ok:
            bags = padded
    return TreeDecomposition(tree, g, tuple(bags))


@pytest.fixture
def p3_td(p3):
    """Root {b} with children {a,b} and {b,c}."""
    return td_of(p3, [0, 0, 0], [{1}, {0, 1}, {1, 2}])


class TestRootedTree:
    def test_rejects_two_roots(self):
        with pytest.raises(ValueError):
            RootedTree([0, 1])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            RootedTree([0, 2, 1])

    def test_paths_and_ancestors(self):
        t = RootedTree([0, 0, 1, 1, 0])
        assert t.path_from_root(3) == (0, 1, 3)
        assert t.gca(1, 3) == 1
        assert t.gca(3, 1) == 1
        assert t.gca(2, 3) == 1
        assert t.gca(3, 4) == 0
        assert t.path_between(2, 4) == (2, 1, 0, 4)
        assert t.leaves() == [2, 3, 4]

    def test_bfs_order_ties_by_id(self):
        t = RootedTree([0, 0, 0, 1, 2])
        assert t.bfs_nodes() == [0, 1, 2, 3, 4]


class TestValidate:
    def test_path_decomposition_valid(self, p3):
        td = td_of(p3, [0, 0], [{0, 1}, {1, 2}])
        assert validate_td(td).ok

    def test_uncovered_edge(self, p3):
        td = td_of(p3, [0, 0], [{0, 1}, {2}])
        report = validate_td(td)
        assert any(v.rule == "T1" and "1-2" in v.where for v in report.violations)

    def test_disconnected_trace(self, p3):
        # A path of bags where vertex 1 is missing from the middle node.
        bad = td_of(p3, [0, 0, 1], [{0, 1}, {0}, {1, 2}])
        report = validate_td(bad)
        assert any(v.rule == "T2" and "vertex 1" in v.where for v in report.violations)

    def test_uncovered_vertex(self):
        g = Graph(2, [])
        td = td_of(g, [0], [{0}])
        report = validate_td(td)
        assert any("vertex 1" in v.where for v in report.violations)


class TestWidthDepth:
    def test_p3_rooted(self, p3_td):
        assert td_width(p3_td) == 1
        assert td_depth(p3_td) == 2

    def test_single_bag_k3(self, k3):
        td = td_of(k3, [0], [{0, 1, 2}])
        assert td_width(td) == 2
        assert td_depth(td) == 3

    def test_one_vertex_graph(self):
        td = td_of(Graph(1, []), [0], [{0}])
        assert td_width(td) == 0
        assert td_depth(td) == 1


class TestConnectedTrace:
    def test_single_vertex_is_t2(self, p3_td):
        for v in p3_td.host.vertices:
            assert check_connected_trace(p3_td, 1 << v)

    def test_pair(self, p3_td):
        assert check_connected_trace(p3_td, 0b011)

    def test_requires_connected_set(self, p3_td):
        with pytest.raises(NotApplicableError):
            check_connected_trace(p3_td, 0b101)

    def test_exhaustive_small(self, p3, k3):
        cases = [
            td_of(p3, [0, 0], [{0, 1}, {1, 2}]),
            td_of(p3, [0, 0, 0], [{1}, {0, 1}, {1, 2}]),
            td_of(k3, [0], [{0, 1, 2}]),
            td_of(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), [0, 0],
                  [{0, 1, 3}, {1, 2, 3}]),
        ]
        for td in cases:
            assert validate_td(td).ok
            for u in connected_vertex_subsets(td.host, 3):
                assert check_connected_trace(td, bitmask(u))


class TestTighten:
    def test_fixpoint_when_tight(self, p3):
        td = td_of(p3, [0, 0], [{0, 1}, {1, 2}])
        assert tighten(td).bags == td.bags

    def test_drops_spurious_vertex(self, p3):
        td = td_of(p3, [0, 0], [{0, 1, 2}, {1, 2}])
        tight = tighten(td)
        assert tight.bags == (0b011, 0b110)

    def test_duplicate_bag_shrinks(self, p3):
        td = td_of(p3, [0, 0, 1], [{0, 1}, {0, 1}, {1, 2}])
        tight = tighten(td)
        assert validate_td(tight).ok
        # The redundant root copy empties entirely; the chain keeps coverage.
        assert tight.bags[0] == 0
        assert tight.bags[1] == 0b011

    def test_idempotent_and_tight(self, p3, k3):
        for td in [
            td_of(p3, [0, 0], [{0, 1, 2}, {1, 2}]),
            td_of(k3, [0, 0], [{0, 1, 2}, {0, 1, 2}]),
        ]:
            tight = tighten(td)
            assert validate_td(tight).ok
            assert td_width(tight) <= td_width(td)
            assert td_depth(tight) <= td_depth(td)
            assert tighten(tight).bags == tight.bags
            # No single further removal may stay valid.
            for t in tight.tree.nodes:
                for v in bit_indices(tight.bags[t]):
                    bags = list(tight.bags)
                    bags[t] &= ~(1 << v)
                    worse = TreeDecomposition(tight.tree, tight.host, tuple(bags))
                    assert not validate_td(worse).ok


class TestTdFormat:
    def test_round_trip(self, p3_td):
        text = dumps_td(p3_td)
        assert "s td 3 2 3" in text
        assert "c depth 2" in text
        assert "r 1" in text
        back = loads_td(text, p3_td.host)
        assert back.bags == p3_td.bags
        assert back.tree.parent == p3_td.tree.parent

    def test_rejects_wrong_host_size(self, p3_td):
        with pytest.raises(FormatError):
            loads_td(dumps_td(p3_td), Graph(4, [(0, 1)]))

    def test_rejects_broken_tree(self, p3):
        text = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n"
        with pytest.raises(FormatError):
            loads_td(text, p3)

    P3_TD = "s td 3 2 3\nb 1 2\nb 2 1 2\nb 3 2 3\n1 2\n1 3\n"

    def test_reference_text_parses(self, p3):
        assert validate_td(loads_td(self.P3_TD + "r 2\n", p3)).ok

    @pytest.mark.parametrize("text", [
        P3_TD + "r 0\n",  # root id below range
        P3_TD + "r 4\n",  # root id above range
        "s td 3 2 3\nb 1 2\nb 2 1 2\nb 3 2 3\n1 2\n2 3\n3 1\n",  # cyclic links
        P3_TD + "b 1 2\n",  # repeated bag id
        P3_TD.replace("s td 3 2 3", "s td 3 3 3"),  # <w+1> is not the largest bag
        P3_TD.replace("b 3 2 3", "b 3 2 x"),  # non-integer token
        P3_TD.replace("s td 3 2 3", "s td three 2 3"),  # non-integer header
        P3_TD + "r\n",  # root line without an id
        P3_TD.replace("b 3 2 3", "b 3 2 0"),  # bag vertex below 1..n
        P3_TD.replace("b 3 2 3", "b 3 2 4"),  # bag vertex above 1..n
    ], ids=["root-0", "root-4", "cycle", "repeated-bag", "width-header",
            "non-integer-bag", "non-integer-header", "root-missing-id",
            "bag-vertex-0", "bag-vertex-n-plus-1"])
    def test_rejects_malformed(self, p3, text):
        with pytest.raises(FormatError):
            loads_td(text, p3)

    def test_repeated_lines_name_their_line(self, p3):
        # A later header or root line would silently win.
        with pytest.raises(FormatError, match="^line 8: repeated root"):
            loads_td(self.P3_TD + "r 1\nr 2\n", p3)
        with pytest.raises(FormatError, match="^line 7: repeated header"):
            loads_td(self.P3_TD + "s td 3 2 3\n", p3)

    def test_header_bag_count_costs_no_memory(self, p3):
        # The header's bag count is compared with the bags read before
        # anything of that size is built.
        import tracemalloc

        text = "s td 1000000 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="bag ids"):
                loads_td(text, p3)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
