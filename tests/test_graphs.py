import io

import pytest
from hypothesis import given, settings

from bdtw.errors import FormatError
from bdtw.graphs import (
    Graph,
    boundary,
    closure,
    connected_components,
    dumps_graph,
    edge_component_graph,
    incident_edges,
    loads_graph,
    read_graph,
    robber_component,
)
from conftest import small_graph_corpus
from oracles import boundary_oracle
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
        assert p3.edge_ids(incident_edges(p3, 1)) == (0, 1)

    def test_closure_endpoint(self, p3c):
        assert p3c.edge_ids(incident_edges(p3c, 0)) == (0, 2)

    def test_isolated_vertex_empty(self):
        g = Graph(2, [(0, 0)])
        assert incident_edges(g, 1) == 0

    def test_unknown_vertex(self, p3):
        with pytest.raises(ValueError):
            incident_edges(p3, 5)


class TestConnectedComponents:
    def test_path(self, p3):
        assert connected_components(p3) == [frozenset({0, 1, 2})]

    def test_two_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_edgeless(self):
        g = Graph(2, [])
        assert connected_components(g) == [frozenset({0}), frozenset({1})]


class TestBoundary:
    def test_path_single_edge(self, p3):
        # Expected value computed by evaluating the definition literally.
        assert boundary_oracle(p3, {0}) == {1}
        assert boundary(p3, p3.edge_mask([0])) == frozenset({1})

    def test_empty_set(self, p3):
        assert boundary(p3, 0) == frozenset()

    def test_full_set(self, p3):
        assert boundary(p3, p3.full_mask) == frozenset()

    @given(graphs_with_edge_sets())
    def test_matches_oracle(self, gm):
        g, mask = gm
        assert boundary(g, mask) == frozenset(boundary_oracle(g, set(g.edge_ids(mask))))

    @given(graphs_with_edge_sets())
    def test_symmetric_in_complement(self, gm):
        g, mask = gm
        assert boundary(g, mask) == boundary(g, g.full_mask & ~mask)


class TestEdgeComponentGraph:
    def test_p3_closure_center_cop(self, p3c):
        # Hand evaluation: cop on b splits the path into the two end pockets
        # plus the single-edge part bb.
        ecg = edge_component_graph(p3c, {1})
        masks = [p.edge_mask for p in ecg.parts]
        assert masks == [
            p3c.mask_of([(0, 1), (0, 0)]),
            p3c.mask_of([(1, 2), (2, 2)]),
            p3c.mask_of([(1, 1)]),
        ]
        assert [p.kind for p in ecg.parts] == ["component", "component", "edge"]

    def test_no_cops_gives_components(self):
        g = Graph(4, [(0, 1), (2, 3)])
        ecg = edge_component_graph(g, set())
        assert [p.edge_mask for p in ecg.parts] == [0b01, 0b10]

    def test_k3_two_cops(self, k3):
        # K3 edges: ab=0, ac=1, bc=2.  Cops on a,b: ab is its own part, the
        # c-pocket carries both remaining edges.
        ecg = edge_component_graph(k3, {0, 1})
        assert [p.edge_mask for p in ecg.parts] == [0b001, 0b110]
        assert ecg.parts[1].vertices == frozenset({0, 1, 2})

    def test_parts_partition_edges_exhaustive(self):
        import itertools

        for g in small_graph_corpus(3) + [closure(x) for x in small_graph_corpus(3)]:
            for size in range(g.n + 1):
                for cops in itertools.combinations(g.vertices, size):
                    ecg = edge_component_graph(g, cops)
                    union = 0
                    for p in ecg.parts:
                        assert union & p.edge_mask == 0
                        union |= p.edge_mask
                    assert union == g.full_mask
                    for e in range(g.m):
                        assert ecg.part_containing(e).edge_mask >> e & 1

    @given(graphs_with_cop_sets())
    def test_single_edge_parts_inside_cops(self, gc):
        g, cops = gc
        for part in edge_component_graph(g, cops).parts:
            u, v = None, None
            if part.kind == "edge":
                (e,) = g.edge_ids(part.edge_mask)
                u, v = g.endpoints(e)
                assert u in cops and v in cops
            else:
                for e in g.edge_ids(part.edge_mask):
                    u, v = g.endpoints(e)
                    assert u not in cops or v not in cops


class TestRobberComponent:
    def test_p3_closure(self, p3c):
        assert robber_component(p3c, {1}, 0) == p3c.mask_of([(0, 1), (0, 0)])

    def test_no_cops_whole_component(self, p3):
        assert robber_component(p3, set(), 1) == p3.full_mask

    def test_captured_single_edge(self, e1c):
        assert robber_component(e1c, {0, 1}, 0) == e1c.mask_of([(0, 1)])

    @given(graphs_with_cop_sets())
    def test_membership_and_consistency(self, gc):
        g, cops = gc
        for e in range(g.m):
            part = robber_component(g, cops, e)
            assert part >> e & 1
            for e2 in g.edge_ids(part):
                assert robber_component(g, cops, e2) == part

    @given(graphs_with_cop_sets())
    @settings(max_examples=50)
    def test_refinement_under_more_cops(self, gc):
        g, cops = gc
        for extra in range(g.n):
            bigger = cops | {extra}
            for e in range(g.m):
                finer = robber_component(g, bigger, e)
                coarser = robber_component(g, cops, e)
                assert finer & ~coarser == 0


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

    @pytest.mark.parametrize("text", ["p tw 2 x\n", "p tw 2 1\n1 y\n"],
                             ids=["header", "edge"])
    def test_rejects_non_integer_token(self, text):
        with pytest.raises(FormatError):
            loads_graph(text)
