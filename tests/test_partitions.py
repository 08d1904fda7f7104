import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bdtw.errors import NotApplicableError
from bdtw.graphs import Graph, closure
from bdtw.partitions import (
    EdgePartition,
    check_submodularity_instance,
    f_extension,
    partition_boundary,
    partition_width,
)
from conftest import small_graph_corpus
from oracles import edge_partitions
from strats import graphs


@st.composite
def edge_partition_of(draw, g):
    """One partition of g's edges, drawn as a restricted-growth string: edge
    i joins a block of an earlier edge or opens the next block.  This reaches
    exactly the partitions edge_partitions(g) lists, without enumerating
    all Bell(m) of them."""
    blocks: list[int] = []
    for e in range(g.m):
        b = draw(st.integers(0, len(blocks)))
        if b == len(blocks):
            blocks.append(0)
        blocks[b] |= 1 << e
    return EdgePartition(g, tuple(blocks) or (0,))


@st.composite
def partition_pairs(draw, max_n=4):
    g = draw(graphs(max_n=max_n))
    return g, draw(edge_partition_of(g)), draw(edge_partition_of(g))


class TestEdgePartition:
    def test_rejects_overlap(self, p3):
        with pytest.raises(ValueError):
            EdgePartition(p3, (0b11, 0b10))

    def test_rejects_gap(self, p3):
        with pytest.raises(ValueError):
            EdgePartition(p3, (0b01,))

    def test_empty_blocks_allowed(self, p3):
        p = EdgePartition(p3, (p3.full_mask, 0, 0))
        assert len(p) == 3


class TestFExtension:
    def test_p3_move_edge(self, p3):
        p = EdgePartition(p3, (0b01, 0b10))
        q = f_extension(p, 0, 0b10)
        assert q.blocks == (0b11, 0)

    def test_empty_extension_is_identity(self, p3):
        p = EdgePartition(p3, (0b01, 0b10))
        assert f_extension(p, 1, 0) == p

    def test_k3_middle_block(self, k3):
        p = EdgePartition(k3, (0b001, 0b010, 0b100))
        q = f_extension(p, 1, 0b001)
        assert q.blocks == (0, 0b011, 0b100)

    def test_bad_index(self, p3):
        with pytest.raises(IndexError):
            f_extension(EdgePartition(p3, (p3.full_mask,)), 1, 0)

    @given(partition_pairs(), st.integers(0, 10**6))
    def test_result_is_partition_and_idempotent(self, gpq, raw):
        g, p, _ = gpq
        f = raw & g.full_mask
        i = raw % len(p.blocks)
        once = f_extension(p, i, f)
        assert f_extension(once, i, f) == once


class TestBoundaryAndWidth:
    def test_p3_split(self, p3):
        p = EdgePartition(p3, (0b01, 0b10))
        assert partition_boundary(p) == 0b010
        assert partition_width(p) == 1

    def test_trivial_partition(self, p3):
        p = EdgePartition(p3, (p3.full_mask, 0))
        assert partition_width(p) == 0

    def test_k3_singletons(self, k3):
        p = EdgePartition(k3, (0b001, 0b010, 0b100))
        assert partition_boundary(p) == 0b111
        assert partition_width(p) == 3


class TestSubmodularity:
    def test_hand_instance(self, p3):
        p = EdgePartition(p3, (0b01, 0b10))
        q = EdgePartition(p3, (0b11, 0))
        # wid(P)=1, wid(Q)=0; extending X={ab} by the complement of Y=empty
        # makes P trivial and Q the split partition: 1+0 >= 0+1.
        assert check_submodularity_instance(p, q, 0, 1)

    def test_empty_x_always_holds(self, p3):
        p = EdgePartition(p3, (0, 0b01, 0b10))
        q = EdgePartition(p3, (0b10, 0b01))
        assert check_submodularity_instance(p, q, 0, 0)

    def test_not_applicable(self, p3):
        p = EdgePartition(p3, (p3.full_mask, 0))
        q = EdgePartition(p3, (0b01, 0b10))
        with pytest.raises(NotApplicableError):
            check_submodularity_instance(p, q, 0, 0)

    def test_exhaustive_tiny(self):
        # Every partition pair and block pair on the loop-free graphs with
        # three vertices plus the closure of the single edge.
        hosts = [g for g in small_graph_corpus(3)] + [closure(Graph(2, [(0, 1)]))]
        checked = 0
        for g in hosts:
            parts = [EdgePartition(g, bs) for bs in edge_partitions(g)]
            for p, q in itertools.product(parts, repeat=2):
                for xi in range(len(p.blocks)):
                    for yi in range(len(q.blocks)):
                        if p.block(xi) | q.block(yi) == g.full_mask:
                            continue
                        assert check_submodularity_instance(p, q, xi, yi)
                        checked += 1
        assert checked == 132  # sanity: the loop actually exercised instances

    @given(partition_pairs())
    @settings(max_examples=200)
    def test_random_instances(self, gpq):
        g, p, q = gpq
        for xi in range(len(p.blocks)):
            for yi in range(len(q.blocks)):
                if p.block(xi) | q.block(yi) == g.full_mask:
                    continue
                assert check_submodularity_instance(p, q, xi, yi)
