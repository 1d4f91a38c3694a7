import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepack.core import (Graph, InputError, ParseError, complete, cycle, path,
                           read_graph, write_graph)
from treepack.products import (Bundle, ProductGraph, cartesian, lexicographic,
                               read_product, write_product,
                               UnsupportedOperationError)


def test_cartesian_small():
    p = cartesian(path(2), path(2))
    assert p.graph.n == 4 and p.graph.m == 4
    assert p.graph.edges == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_cartesian_edge_count_law():
    rng = random.Random(7)
    for _ in range(20):
        g = _random_connected(rng, rng.randint(2, 6))
        h = _random_connected(rng, rng.randint(2, 6))
        p = cartesian(g, h)
        assert p.graph.m == g.n * h.m + h.n * g.m
        q = cartesian(h, g)
        assert q.graph.m == p.graph.m   # size is symmetric


def test_cartesian_degree_law():
    g, h = complete(4), cycle(5)
    p = cartesian(g, h)
    for u in range(g.n):
        for v in range(h.n):
            assert p.graph.degree(p.flat(u, v)) == g.degree(u) + h.degree(v)


def test_lexicographic_sizes_and_degrees():
    g, h = path(3), complete(4)
    p = lexicographic(g, h)
    assert p.graph.n == 12
    assert p.graph.m == 50
    assert p.graph.m == g.n * h.m + g.m * h.n * h.n
    for u in range(g.n):
        for v in range(h.n):
            want = h.n * g.degree(u) + h.degree(v)
            assert p.graph.degree(p.flat(u, v)) == want


def test_lexicographic_not_commutative():
    a = lexicographic(path(3), complete(4)).graph
    b = lexicographic(complete(4), path(3)).graph
    assert a.m != b.m


def test_flat_and_coords_round_trip():
    p = cartesian(cycle(3), path(4))
    for x in range(p.graph.n):
        c = p.coords(x)
        assert p.flat(c.g_index, c.h_index) == x


def test_fiber_and_cross_section():
    p = cartesian(path(3), cycle(4))
    assert p.fiber(1) == (4, 5, 6, 7)
    assert set(p.fiber_edges(1)) <= p.graph.edge_set
    assert p.cross_section(2) == (2, 6, 10)
    assert set(p.cross_section_edges(0)) == {(0, 4), (4, 8)}


def test_rung_edges_cartesian_only():
    p = cartesian(path(2), path(3))
    assert p.rung_edges((0, 1)) == ((0, 3), (1, 4), (2, 5))
    with pytest.raises(InputError):
        p.rung_edges((0, 2))
    lex = lexicographic(path(2), path(3))
    with pytest.raises(UnsupportedOperationError):
        lex.rung_edges((0, 1))


def test_bundle_lex_only():
    p = lexicographic(path(2), path(2))
    b = p.bundle((1, 0))
    assert isinstance(b, Bundle)
    assert b.g_edge == (0, 1)
    assert b.left == (0, 1) and b.right == (2, 3)
    assert set(b.edges) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    with pytest.raises(UnsupportedOperationError):
        cartesian(path(2), path(2)).bundle((0, 1))
    with pytest.raises(InputError):
        p.bundle((0, 0))


def test_all_cross_edges_partition():
    p = lexicographic(path(3), path(3))
    fiber_edges = {e for u in range(3) for e in p.fiber_edges(u)}
    assert p.all_cross_edges | fiber_edges == p.graph.edge_set
    assert not p.all_cross_edges & fiber_edges


def test_factors_must_be_connected():
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InputError):
        cartesian(disconnected, path(2))
    with pytest.raises(InputError):
        lexicographic(path(2), disconnected)


def test_product_round_trip():
    for make in (cartesian, lexicographic):
        p = make(cycle(3), path(4))
        text = write_product(p, ["round trip"])
        back = read_product(text)
        assert back.kind == p.kind
        assert back.graph.edges == p.graph.edges
        assert back.factor_g.edges == p.factor_g.edges
        assert back.factor_h.edges == p.factor_h.edges


def test_read_product_rejects_wrong_header():
    p = cartesian(path(2), path(2))
    text = write_product(p)
    with pytest.raises(ParseError, match="header"):
        read_product(text.replace("# product cartesian n1=2 n2=2\n", ""))
    with pytest.raises(ParseError, match="kind"):
        read_product(text.replace("cartesian", "tensor"))
    # claim it is a lex product: edge set will not match the rebuild
    with pytest.raises(ParseError, match="not the declared product"):
        read_product(text.replace("cartesian", "lex"))


def _random_connected(rng: random.Random, n: int) -> Graph:
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    others = [(a, b) for a in range(n) for b in range(a + 1, n)
              if (a, b) not in edges]
    rng.shuffle(others)
    edges.update(others[:rng.randint(0, len(others))])
    return Graph.from_edges(n, sorted(edges))


@st.composite
def small_connected(draw) -> Graph:
    n = draw(st.integers(1, 7))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph.from_edges(n, sorted(set(tree) | set(extra)))


@settings(max_examples=100, deadline=None)
@given(small_connected(), small_connected())
def test_products_match_validated_construction(g, h):
    """The products skip Graph.from_edges; it must agree on their edge lists."""
    n2 = h.n
    fibers = [(u * n2 + a, u * n2 + b) for u in range(g.n) for a, b in h.edges]
    rungs = [(a * n2 + v, b * n2 + v) for a, b in g.edges for v in range(n2)]
    bundles = [(a * n2 + x, b * n2 + y) for a, b in g.edges
               for x in range(n2) for y in range(n2)]
    assert cartesian(g, h).graph == Graph.from_edges(g.n * n2, fibers + rungs)
    assert lexicographic(g, h).graph == Graph.from_edges(g.n * n2, fibers + bundles)
    for graph in (g, h, cartesian(g, h).graph):
        assert read_graph(write_graph(graph)) == graph
