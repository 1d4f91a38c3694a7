import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

from treepack.catalogue import complete, cycle, path
from treepack.core import Graph, InputError, SizeError, read_graph, write_graph
from treepack.products import (ProductGraph, cartesian, lexicographic,
                               write_product)

from reference import connected_graphs, random_connected


def test_cartesian_small():
    p = cartesian(path(2), path(2))
    assert p.graph.n == 4 and p.graph.m == 4
    assert p.graph.edges == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_cartesian_edge_count_law():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 6))
        h = random_connected(rng, rng.randint(2, 6))
        p = cartesian(g, h)
        assert p.graph.m == g.n * h.m + h.n * g.m
        q = cartesian(h, g)
        assert q.graph.m == p.graph.m   # size is symmetric


def _degrees(g: Graph) -> Counter:
    """Vertex degrees counted from the edge list."""
    return Counter(v for e in g.edges for v in e)


def test_cartesian_degree_law():
    g, h = complete(4), cycle(5)
    p = cartesian(g, h)
    dp, dg, dh = _degrees(p.graph), _degrees(g), _degrees(h)
    for u in range(g.n):
        for v in range(h.n):
            assert dp[u * h.n + v] == dg[u] + dh[v]


def test_lexicographic_sizes_and_degrees():
    g, h = path(3), complete(4)
    p = lexicographic(g, h)
    assert p.graph.n == 12
    assert p.graph.m == 50
    assert p.graph.m == g.n * h.m + g.m * h.n * h.n
    dp, dg, dh = _degrees(p.graph), _degrees(g), _degrees(h)
    for u in range(g.n):
        for v in range(h.n):
            assert dp[u * h.n + v] == h.n * dg[u] + dh[v]


def test_lexicographic_not_commutative():
    a = lexicographic(path(3), complete(4)).graph
    b = lexicographic(complete(4), path(3)).graph
    assert a.m != b.m


def test_fiber_and_cross_section():
    g, h = path(3), cycle(4)
    p = cartesian(g, h)
    assert (p.n1, p.n2) == (3, 4)
    assert p.fiber_copy(h.edges, 1) == [(4, 5), (4, 7), (5, 6), (6, 7)]
    assert set(p.fiber_copy(h.edges, 1)) <= set(p.graph.edges)
    # slice [v::n2] of the identity matching is the cross section at v
    sections = p.matching_copy(g.edges, p.n2)
    assert sections[2::4] == [(2, 6), (6, 10)]
    assert set(sections[0::4]) == {(0, 4), (4, 8)}
    for v in range(p.n2):
        assert sections[v::4] == [(a * 4 + v, b * 4 + v) for a, b in g.edges]


def _cross_edges(p: ProductGraph) -> set:
    return {(a, b) for a, b in p.graph.edges if a // p.n2 != b // p.n2}


def test_rung_edges_cartesian_only():
    # the cartesian rungs over a factor edge are its identity matching, and
    # no other matching is present
    p = cartesian(path(2), path(3))
    for e in ((0, 1), (1, 0)):
        assert p.matching_copy([e], 3) == [(0, 3), (1, 4), (2, 5)]
        assert not set(p.matching_copy([e], 1)) & set(p.graph.edges)
    assert _cross_edges(p) == {(0, 3), (1, 4), (2, 5)}


def test_bundle_lex_only():
    # a lexicographic bundle is the union of all n2 matchings over its edge
    p = lexicographic(path(2), path(2))
    bundle = {e for j in (1, 2) for e in p.matching_copy([(1, 0)], j)}
    assert bundle == {(0, 2), (0, 3), (1, 2), (1, 3)} == _cross_edges(p)
    q = cartesian(path(2), path(2))
    assert _cross_edges(q) == set(q.matching_copy([(1, 0)], 2))


def test_factors_must_be_connected():
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InputError):
        cartesian(disconnected, path(2))
    with pytest.raises(InputError):
        lexicographic(path(2), disconnected)


def test_product_round_trip():
    # a product file is an edge list under a header naming kind and fiber sizes
    for make in (cartesian, lexicographic):
        p = make(cycle(3), path(4))
        text = write_product(p)
        assert text.startswith(f"# product {p.kind} n1=3 n2=4\np {p.graph.n} ")
        assert read_graph(text) == p.graph


def test_product_size_is_checked_before_building():
    k2, p3000, p2000 = complete(2), path(3000), path(2000)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="9005998 edges"):
            lexicographic(k2, p3000)     # 2*2999 + 1*3000^2 edges
        with pytest.raises(SizeError):
            cartesian(p2000, p2000)      # 2 * 2000 * 1999 edges
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the benchmark's largest product stays far below the cap
    assert cartesian(complete(40), cycle(40)).graph.m == 40 * 40 + 780 * 40


@settings(max_examples=100, deadline=None)
@given(connected_graphs(1, 7), connected_graphs(1, 7))
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
