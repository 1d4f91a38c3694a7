import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepack.core import (Graph, InputError, SizeError, complete,
                           complete_minus_edge, complete_multipartite, cycle,
                           hypercube, path, read_graph)
from treepack.oracle import max_packing
from treepack.products import cartesian, lexicographic
from treepack.verify import verify_packing

from reference import tutte_bruteforce


def random_connected(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a random subset of the remaining pairs."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    others = [(a, b) for a in range(n) for b in range(a + 1, n)
              if (a, b) not in edges]
    rng.shuffle(others)
    edges.update(others[:rng.randint(0, len(others))])
    return Graph.from_edges(n, sorted(edges))


def edge_bound(g: Graph) -> int:
    """floor(m / (n-1)): no packing can use more edges than the graph has."""
    return g.m // (g.n - 1)


def test_edge_bound_values():
    assert edge_bound(path(5)) == 1
    assert edge_bound(complete(4)) == 2
    assert edge_bound(lexicographic(path(3), complete(4)).graph) == 4   # 50//11
    assert edge_bound(lexicographic(complete_minus_edge(4), path(3)).graph) == 4  # 53//11


def test_max_packing_known_values():
    cases = [
        (path(6), 1),
        (cycle(7), 1),
        (complete(4), 2),
        (complete(6), 3),
        (complete_multipartite(3, 2), 2),
        (hypercube(3), 1),
        (hypercube(4), 2),
        (complete_minus_edge(4), 1),
        (cartesian(complete(4), cycle(3)).graph, 2),
        (complete(24), 12),
        (complete(30), 15),
        (hypercube(7), 3),
        (cartesian(complete(6), cycle(20)).graph, 3),
    ]
    for g, want in cases:
        result = max_packing(g)
        assert result.sigma == want
        assert len(result.packing.trees) == want
        assert result.packing.method == "oracle"
        assert verify_packing(g, result.packing).overall
        assert result.certificate.bound == want


def test_max_packing_rejects_bad_input():
    with pytest.raises(InputError):
        max_packing(path(1))
    with pytest.raises(InputError):
        max_packing(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_too_few_edges_rejected_before_allocating():
    # m < n - 1 cannot be connected: no O(n) component search is needed
    g = read_graph("p 200000 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="disconnected"):
            max_packing(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tree_certificate_is_all_singletons():
    result = max_packing(path(4))
    assert result.certificate.partition == ((0,), (1,), (2,), (3,))
    assert result.certificate.crossing_count == 3
    assert result.certificate.bound == 1


def test_certificate_structure():
    for g in (complete(5), cycle(6), cartesian(path(3), path(3)).graph):
        cert = max_packing(g).certificate
        flat = [v for b in cert.partition for v in b]
        assert sorted(flat) == list(range(g.n))      # disjoint cover
        assert len(cert.partition) >= 2
        block_of = {v: i for i, b in enumerate(cert.partition) for v in b}
        crossing = sum(1 for a, b in g.edges if block_of[a] != block_of[b])
        assert crossing == cert.crossing_count
        assert cert.bound == crossing // (len(cert.partition) - 1)


def test_tutte_bruteforce_known_values():
    assert tutte_bruteforce(path(2)).bound == 1
    assert tutte_bruteforce(cycle(5)).bound == 1
    assert tutte_bruteforce(complete(4)).bound == 2
    assert tutte_bruteforce(complete_multipartite(3, 2)).bound == 2


def test_tutte_bruteforce_limits():
    with pytest.raises(SizeError):
        tutte_bruteforce(complete(13))
    with pytest.raises(InputError):
        tutte_bruteforce(path(1))


def test_bruteforce_partition_well_formed():
    cert = tutte_bruteforce(cycle(4))
    flat = sorted(v for b in cert.partition for v in b)
    assert flat == [0, 1, 2, 3]
    assert len(cert.partition) >= 2


def test_oracle_matches_bruteforce_random():
    rng = random.Random(4242)
    for _ in range(60):
        g = random_connected(rng, rng.randint(3, 8))
        result = max_packing(g)
        assert result.sigma == tutte_bruteforce(g).bound
        assert verify_packing(g, result.packing).overall


def test_sigma_respects_edge_bound_and_half_n():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 9))
        sigma = max_packing(g).sigma
        assert sigma <= edge_bound(g)
        assert sigma <= max(1, g.n // 2)


def test_adding_edges_never_hurts():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(4, 8)
        g = random_connected(rng, n)
        edges = set(g.edges)
        missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                   if (a, b) not in edges]
        if not missing:
            continue
        extra = rng.choice(missing)
        g2 = Graph.from_edges(n, list(g.edges) + [extra])
        assert max_packing(g2).sigma >= max_packing(g).sigma


def test_oracle_deterministic():
    g = cartesian(complete(4), complete(4)).graph
    a = max_packing(g)
    b = max_packing(g)
    assert a.packing.trees == b.packing.trees
    assert a.certificate == b.certificate


@st.composite
def connected_graphs(draw) -> Graph:
    n = draw(st.integers(2, 9))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, sorted(set(tree) | set(extra)))


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_oracle_certificate_and_packing_property(g):
    result = max_packing(g)
    assert result.sigma == tutte_bruteforce(g).bound
    cert = result.certificate
    block_of = {v: i for i, b in enumerate(cert.partition) for v in b}
    crossing = sum(1 for a, b in g.edges if block_of[a] != block_of[b])
    assert crossing // (len(cert.partition) - 1) == result.sigma
    assert verify_packing(g, result.packing).overall
