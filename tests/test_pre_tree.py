import hashlib
import random

import pytest

from bdtw.errors import FormatError, NotApplicableError
from bdtw.graphs import Graph, closure
from bdtw.pre_tree import (
    PreTreeDecomposition,
    check_exact_path_nesting,
    check_exact_subtree_depth,
    check_exact_subtree_partition,
    dumps_ptd,
    from_tree_decomposition,
    is_exact,
    is_exact_edge,
    loads_ptd,
    local_boundary,
    local_partition,
    ptd_depth,
    ptd_width,
    to_tree_decomposition,
    validate_ptd,
)
from bdtw.tree_decomp import (
    RootedTree,
    TreeDecomposition,
    dumps_td,
    td_depth,
    td_width,
    tighten,
    validate_td,
)
from conftest import small_graph_corpus
from test_tree_decomp import elimination_td


def e1_reference(e1c):
    """The strategy tree of the two-placement win on the closed single edge:
    root - node1 (bag {a}) - [leaf2 cone {aa}, node3 (bag {a,b}) -
    [leaf4 cone {ab}, leaf5 cone {bb}]].  Edge ids: ab=0, aa=1, bb=2."""
    tree = RootedTree([0, 0, 1, 1, 3, 3])
    bags = (
        0,
        0b1,
        0b1,
        0b11,
        0b11,
        0b10,
    )
    full = e1c.full_mask
    cones = {
        (0, 1): 0b111, (1, 0): 0,
        (1, 2): 0b010, (2, 1): full & ~0b010,
        (1, 3): 0b101, (3, 1): 0b010,
        (3, 4): 0b001, (4, 3): full & ~0b001,
        (3, 5): 0b100, (5, 3): full & ~0b100,
    }
    return PreTreeDecomposition(tree, e1c, bags, cones)


@pytest.fixture
def e1_ptd(e1c):
    return e1_reference(e1c)


class TestValidate:
    def test_reference_is_valid(self, e1_ptd):
        assert validate_ptd(e1_ptd).ok

    def test_nonempty_root_bag(self, e1_ptd):
        bags = list(e1_ptd.bags)
        bags[0] = 0b1
        bad = PreTreeDecomposition(e1_ptd.tree, e1_ptd.host, tuple(bags), e1_ptd.cones)
        assert any(v.rule == "PT1" for v in validate_ptd(bad).violations)

    def test_overlapping_opposite_cones(self, e1_ptd):
        cones = dict(e1_ptd.cones)
        cones[(1, 0)] = 0b001  # also sits in (0, 1)
        bad = PreTreeDecomposition(e1_ptd.tree, e1_ptd.host, e1_ptd.bags, cones)
        rules = {v.rule for v in validate_ptd(bad).violations}
        assert "PT4" in rules

    def test_oversized_leaf_cone(self, e1_ptd):
        cones = dict(e1_ptd.cones)
        cones[(1, 2)] = 0b011
        cones[(1, 3)] = 0b100
        bad = PreTreeDecomposition(e1_ptd.tree, e1_ptd.host, e1_ptd.bags, cones)
        assert any(v.rule == "PT2" for v in validate_ptd(bad).violations)

    def test_bag_missing_boundary(self, e1_ptd):
        bags = list(e1_ptd.bags)
        bags[3] = 0b1
        bad = PreTreeDecomposition(e1_ptd.tree, e1_ptd.host, tuple(bags), e1_ptd.cones)
        assert any(v.rule == "PT3" for v in validate_ptd(bad).violations)


class TestLocalPartition:
    def test_root_blocks_are_components(self, e1_ptd):
        assert local_partition(e1_ptd, 0).blocks == (0b111,)

    def test_leaf_blocks(self, e1_ptd):
        assert local_partition(e1_ptd, 2).blocks == (0b101, 0b010)

    def test_internal_three_blocks(self, e1_ptd):
        # Parent cone first, then the two leaf cones.
        assert local_partition(e1_ptd, 3).blocks == (0b010, 0b001, 0b100)


class TestExactness:
    def test_exact_edge(self, e1_ptd):
        assert is_exact_edge(e1_ptd, 3, 4)
        assert is_exact_edge(e1_ptd, 0, 1)

    def test_inexact_edge(self, e1_ptd):
        # Node 1's up cone is empty but the in-cone is everything: exact.
        # Break edge (1,3) by shrinking the in-cone.
        cones = dict(e1_ptd.cones)
        cones[(1, 3)] = 0b001
        cones[(1, 2)] = 0b110  # keep the partition at node 1
        bad = PreTreeDecomposition(e1_ptd.tree, e1_ptd.host, e1_ptd.bags, cones)
        assert not is_exact_edge(bad, 1, 3)

    def test_reference_is_exact(self, e1_ptd):
        assert is_exact(e1_ptd)


class TestWidthDepth:
    def test_reference(self, e1_ptd):
        assert ptd_width(e1_ptd) == 1
        assert ptd_depth(e1_ptd) == 2

    def test_edgeless_host(self):
        g = Graph(1, [])
        ptd = PreTreeDecomposition(
            RootedTree([0, 0]), g, (0, 0), {(0, 1): 0, (1, 0): 0}
        )
        assert ptd_width(ptd) == -1
        assert ptd_depth(ptd) == 0

    def test_chain_depth_telescopes(self, e1c):
        tree = RootedTree([0, 0, 1])
        full = e1c.full_mask
        cones = {
            (0, 1): full, (1, 0): 0,
            (1, 2): 0b001, (2, 1): 0b110,
        }
        bags = (0, 0b1, 0b11)
        ptd = PreTreeDecomposition(tree, e1c, bags, cones)
        assert ptd_depth(ptd) == 2


class TestExactSubtreeChecks:
    def test_root_with_children(self, e1_ptd):
        assert check_exact_subtree_partition(e1_ptd, {0, 1})

    def test_whole_tree(self, e1_ptd):
        assert check_exact_subtree_partition(e1_ptd, set(e1_ptd.tree.nodes))
        assert check_exact_subtree_depth(e1_ptd, set(e1_ptd.tree.nodes))

    def test_prefixes(self, e1_ptd):
        # Prefixes shaped like processed regions: cut at whole nodes.
        for prefix in ({0, 1}, {0, 1, 2, 3}):
            assert check_exact_subtree_partition(e1_ptd, prefix)
            assert check_exact_subtree_depth(e1_ptd, prefix)

    def test_precondition_not_upward_closed(self, e1_ptd):
        with pytest.raises(NotApplicableError):
            check_exact_subtree_partition(e1_ptd, {0, 3})

    def test_precondition_partial_children(self, e1_ptd):
        with pytest.raises(NotApplicableError):
            check_exact_subtree_partition(e1_ptd, {0, 1, 2})

    def test_precondition_missing_root(self, e1_ptd):
        with pytest.raises(NotApplicableError):
            check_exact_subtree_partition(e1_ptd, {1, 2})

    def test_path_nesting(self, e1_ptd):
        assert check_exact_path_nesting(e1_ptd, [0, 1])
        assert check_exact_path_nesting(e1_ptd, [0, 1, 3, 4])
        assert check_exact_path_nesting(e1_ptd, [4, 3, 1, 0])

    def test_path_nesting_needs_tree_edges(self, e1_ptd):
        with pytest.raises(NotApplicableError):
            check_exact_path_nesting(e1_ptd, [0, 3])


def with_cones(ptd, cones):
    """ptd with the cones at the given keys replaced."""
    return PreTreeDecomposition(ptd.tree, ptd.host, ptd.bags, {**ptd.cones, **cones})


class TestCheckersSayNo:
    """Each exact-subtree observation fails on an input that breaks it; the
    inputs break the axioms, which the checkers do not read."""

    def test_subtree_leaf_cones_overlap(self, e1_ptd):
        # (1, 3) takes every edge, aa too, which the leaf cone (1, 2) holds;
        # both edges stay exact.
        bad = with_cones(e1_ptd, {(1, 3): 0b111})
        assert not check_exact_subtree_partition(bad, {0, 1, 2, 3})

    def test_subtree_leaf_cones_miss_an_edge(self, e1_ptd):
        # (1, 3) keeps only ab and (3, 1) the rest: bb is in no leaf cone.
        bad = with_cones(e1_ptd, {(1, 3): 0b001, (3, 1): 0b110})
        assert not check_exact_subtree_partition(bad, {0, 1, 2, 3})

    def test_subtree_trace_splits_across_siblings(self, e1c):
        # b is a boundary vertex at the siblings 2 and 3, through the cones
        # toward their children outside the subtree, but not at their
        # parent 1, whose blocks keep both of b's edges ab and bb together.
        # Each root path meets b once, so the path sums agree with the
        # unions and only the connectivity of b's trace says no.
        full = e1c.full_mask
        cones = {(0, 1): full, (1, 0): 0, (1, 2): 0b010, (2, 1): 0b101,
                 (1, 3): 0b101, (3, 1): 0b010, (2, 4): 0b001, (4, 2): 0b110,
                 (3, 5): 0b100, (5, 3): 0b011}
        ptd = PreTreeDecomposition(RootedTree([0, 0, 1, 1, 2, 3]), e1c, (0,) * 6, cones)
        assert [local_boundary(ptd, t) for t in range(4)] == [0, 0b01, 0b11, 0b11]
        assert not check_exact_subtree_depth(ptd, {0, 1, 2, 3})

    def test_subtree_needs_exact_edges(self, e1_ptd):
        bad = with_cones(e1_ptd, {(1, 3): 0b001})
        with pytest.raises(NotApplicableError, match="^edge 1-3 inside the subtree is not exact$"):
            check_exact_subtree_partition(bad, {0, 1, 2, 3})

    def test_path_cones_not_nested(self, e1_ptd):
        # The exact edge 3-4 now carries aa forward, which (1, 3) lacks.
        bad = with_cones(e1_ptd, {(3, 4): 0b010, (4, 3): 0b101})
        assert not check_exact_path_nesting(bad, [0, 1, 3, 4])

    def test_path_needs_exact_edges(self, e1_ptd):
        bad = with_cones(e1_ptd, {(1, 3): 0b001})
        with pytest.raises(NotApplicableError, match="^path edge 1-3 is not exact$"):
            check_exact_path_nesting(bad, [0, 1, 3])

    def test_tree_decomposition_needs_the_host_closure(self, e1_ptd):
        with pytest.raises(ValueError, match="^decomposition host must be the closure of g$"):
            to_tree_decomposition(e1_ptd, Graph(2, []))


class TestToTreeDecomposition:
    def test_reference(self, e1_ptd, e1):
        td = to_tree_decomposition(e1_ptd, e1)
        assert validate_td(td).ok
        assert td_width(td) <= 1
        assert td_depth(td) <= 2

    def test_requires_exact(self, e1_ptd, e1):
        bags = list(e1_ptd.bags)
        bags[5] = 0b11  # superset of the boundary: valid, not exact
        loose = PreTreeDecomposition(e1_ptd.tree, e1_ptd.host, tuple(bags), e1_ptd.cones)
        assert validate_ptd(loose).ok
        with pytest.raises(ValueError):
            to_tree_decomposition(loose, e1)

    def test_isolated_vertex_leaf_bag(self):
        g = Graph(1, [])
        gc = closure(g)
        ptd = PreTreeDecomposition(
            RootedTree([0, 0]), gc, (0, 0),
            {(0, 1): 0b1, (1, 0): 0},
        )
        assert is_exact(ptd)
        td = to_tree_decomposition(ptd, g)
        assert validate_td(td).ok
        assert td.bags == (0, 0b1)


class TestFromTreeDecomposition:
    def test_p3(self, p3):
        td = TreeDecomposition(
            RootedTree([0, 0, 0]), p3,
            (0b10, 0b11, 0b110),
        )
        ptd = from_tree_decomposition(td)
        assert validate_ptd(ptd).ok
        assert is_exact(ptd)
        assert ptd_width(ptd) <= td_width(td)
        assert ptd_depth(ptd) <= td_depth(td)

    def test_isolated_vertex_component(self):
        g = Graph(3, [(0, 1)])
        td = TreeDecomposition(RootedTree([0]), g, (0b111,))
        ptd = from_tree_decomposition(td)
        assert is_exact(ptd)
        # The bare vertex hangs off the root with its loop as the cone.
        loop = 1 << ptd.host.edge_id(2, 2)
        assert any(
            ptd.cone(0, c) == loop for c in ptd.tree.children[ptd.tree.root]
        )

    def test_rejects_invalid(self, p3):
        bad = TreeDecomposition(RootedTree([0]), p3, (0b1,))
        with pytest.raises(ValueError):
            from_tree_decomposition(bad)

    def test_round_trip_bounds_on_corpus(self):
        # Single-bag decompositions of every small graph survive the round
        # trip with width and depth not increasing.
        for g in small_graph_corpus(3):
            if g.n == 0:
                continue
            td = TreeDecomposition(RootedTree([0]), g, ((1 << g.n) - 1,))
            ptd = from_tree_decomposition(td)
            assert is_exact(ptd)
            back = to_tree_decomposition(ptd, g)
            assert validate_td(back).ok
            assert td_width(back) <= td_width(td)
            assert td_depth(back) <= td_depth(td)

    def test_loopy_host_round_trip(self):
        g = Graph(2, [(0, 1), (0, 0)])
        td = TreeDecomposition(RootedTree([0]), g, (0b11,))
        ptd = from_tree_decomposition(td)
        assert is_exact(ptd)
        back = to_tree_decomposition(ptd, g)
        assert validate_td(back).ok

    # sha256 over 200 seeded padded decompositions (elimination_td) of
    # each input, its tighten and its from_tree_decomposition, as text.
    PADDED_DIGEST = "518d5d90ed93acbe33bfc33dbd31d271c09f247e81836b998c114a3a745cd4d8"

    def test_padded_decompositions_digest(self):
        rng = random.Random(34)
        digest = hashlib.sha256()
        for _ in range(200):
            td = elimination_td(rng)
            for text in (dumps_td(td), dumps_td(tighten(td)),
                         dumps_ptd(from_tree_decomposition(td))):
                digest.update(text.encode())
        assert digest.hexdigest() == self.PADDED_DIGEST


class TestSerialization:
    def test_round_trip(self, e1_ptd):
        text = dumps_ptd(e1_ptd)
        back = loads_ptd(text)
        assert back.bags == e1_ptd.bags
        assert back.cones == e1_ptd.cones
        assert back.host == e1_ptd.host

    def test_reader_does_not_validate(self, e1_ptd):
        # As with .td files, reading and checking the axioms are two steps.
        text = dumps_ptd(e1_ptd).replace("n 0 0 :", "n 0 0 : 1")
        report = validate_ptd(loads_ptd(text))
        assert [v.rule for v in report.violations] == ["PT1"]

    @pytest.mark.parametrize("old, new, line", [
        ("n 1 0 : 0", "n 1 0 : 0 99", 6),  # bag vertex outside the host
        ("n 1 0 : 0", "n 1 0 : x", 6),  # non-integer token
        ("g 0 1 : 0 1 2", "g 0 1 : 0 1 2 7", 11),  # edge id outside the host
        ("n 1 0 : 0", "n 1 0 : 0\nn 1 0 : 0", 7),  # repeated node id
        ("g 1 0 :", "g 1 0 : 1\ng 1 0 :", 13),  # second cone for one tree edge
        ("g 5 3 : 0 1", "g 5 3 : 0 1\n2 9", 21),  # graph line after the records
        ("g 5 3 : 0 1", "g 5 3 : 0 1\nB 1", 21),  # branching mark of the old .st format
        ("g 5 3 : 0 1", "g 5 3 : 0 1\nm 1 : place 0", 21),  # move line of the old .st format
    ], ids=["bag-vertex", "non-integer", "edge-id", "repeated-node", "repeated-cone",
            "late-graph-line", "leftover-branching-mark", "leftover-move"])
    def test_reader_rejects_bad_records(self, e1_ptd, old, new, line):
        text = dumps_ptd(e1_ptd)
        assert old in text
        with pytest.raises(FormatError, match=f"^line {line}:"):
            loads_ptd(text.replace(old, new))
