import pytest

from bdtw.corpus import named_graph
from bdtw.graphs import Graph, closure


@pytest.fixture
def p3():
    """Path a-b-c with a=0, b=1, c=2; edges ab=0, bc=1."""
    return named_graph("P3")


@pytest.fixture
def k3():
    """Triangle with edges ab=0, bc=1, ac=2."""
    return named_graph("K3")


@pytest.fixture
def e1():
    """A single edge ab."""
    return named_graph("E1")


@pytest.fixture
def e1c(e1):
    """Closure of the single edge: ab=0, aa=1, bb=2."""
    return closure(e1)


@pytest.fixture
def p3c(p3):
    """Closure of the path: ab=0, bc=1, aa=2, bb=3, cc=4."""
    return closure(p3)


def small_graph_corpus(max_n: int = 4) -> list[Graph]:
    """Every labeled loop-free graph on 1..max_n vertices (up to 4)."""
    from bdtw.corpus import all_graphs

    out = []
    for n in range(1, max_n + 1):
        out.extend(all_graphs(n))
    return out


def with_loop_sets(graphs: list[Graph]) -> list[Graph]:
    """Each graph with every set of self-loops added, the graph itself and
    its closure among them."""
    return [Graph(g.n, g.edges + tuple((v, v) for v in range(g.n) if loops >> v & 1))
            for g in graphs for loops in range(1 << g.n)]
