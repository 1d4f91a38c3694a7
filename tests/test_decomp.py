"""The tree helpers ``core.root_tree`` and ``cartesian.leaf_split``, and
``ProductGraph``'s fiber and matching copies.  The file keeps
the name of the module these once lived in, so its test ids stay stable."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from treepack.cartesian import leaf_split
from treepack.catalogue import complete, cycle, path
from treepack.core import normalize_edge, root_tree
from treepack.products import cartesian, lexicographic

from reference import (as_tree, components, graph, is_one_cycle,
                       leaf_split_by_scan, random_tree)


def _forest_components(n: int, forest) -> tuple:
    """Vertex sets of a leaf split's forest components (no singletons)."""
    return tuple(c for c in components(n, forest) if len(c) > 1)


def _forest_vertices(forest) -> frozenset:
    """Endpoints of the edges a leaf split deleted."""
    return frozenset(v for e in forest for v in e)


def test_root_tree_orders_breadth_first():
    g = path(4)
    # (parent, child) edges in breadth-first order of the child
    assert root_tree(g.n, g.edges) == ((0, 1), (1, 2), (2, 3))
    # neighbors are scanned in ascending order
    star = as_tree([(0, 3), (1, 3), (2, 3)])
    assert root_tree(4, star) == ((0, 3), (3, 1), (3, 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.tuples(*(st.integers(0, v - 1) for v in range(1, n))),
    st.permutations(range(n)))))
def test_root_tree_and_leaf_split_on_random_spanning_trees(case):
    """root_tree gives every tree edge as (parent, child), each non-root
    vertex a child once; leaf_split keeps ceil(n/2) vertices and splits as
    the scan for the smallest leaf does."""
    parents, label = case
    n = len(label)
    tree = as_tree((label[p], label[v]) for v, p in enumerate(parents, 1))
    rooted = root_tree(n, tree)
    assert len(rooted) == n - 1
    assert sorted(child for _, child in rooted) == list(range(1, n))
    assert as_tree(rooted) == tree
    _, kept, _ = leaf_split(n, tree)
    assert len(kept) == (n + 1) // 2
    assert leaf_split(n, tree) == leaf_split_by_scan(n, tree)


def test_leaf_split_known_seven_vertex_tree():
    # star-like tree whose deterministic split keeps {3,4,5,6}
    host = graph(7, [(0, 3), (1, 5), (2, 5), (3, 4), (3, 5), (3, 6)])
    subtree, kept, forest = leaf_split(host.n, host.edges)
    assert subtree == ((3, 4), (3, 5), (3, 6))
    assert kept == (3, 4, 5, 6)
    assert forest == ((0, 3), (1, 5), (2, 5))
    assert _forest_vertices(forest) == frozenset({0, 1, 2, 3, 5})
    # attachment roots: kept vertices the forest touches
    assert set(kept) & _forest_vertices(forest) == {3, 5}
    assert _forest_components(host.n, forest) == ((0, 3), (1, 2, 5))


def test_leaf_split_path_and_single_edge():
    p4 = path(4)
    _, kept, forest = leaf_split(p4.n, p4.edges)
    assert kept == (2, 3)
    assert forest == ((0, 1), (1, 2))

    p2 = path(2)
    subtree2, kept2, forest2 = leaf_split(p2.n, p2.edges)
    assert kept2 == (1,)
    assert subtree2 == ()
    assert forest2 == ((0, 1),)

    _, kept3, forest3 = leaf_split(1, ())
    assert kept3 == (0,)
    assert forest3 == ()


def test_leaf_split_invariants_random_trees():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 12)
        edges = random_tree(rng, n)
        host = graph(n, edges)
        subtree, kept, forest = leaf_split(n, host.edges)
        assert len(kept) == (n + 1) // 2
        assert list(kept) == sorted(kept)
        assert len(forest) == n // 2
        assert set(subtree) | set(forest) == set(edges)
        assert not set(subtree) & set(forest)
        # kept part is a tree on its vertex set
        assert len(subtree) == len(kept) - 1
        # each forest component holds exactly one kept vertex
        for comp in _forest_components(n, forest):
            assert len(set(comp) & set(kept)) == 1
        # dropped vertices all appear in the forest
        dropped = set(range(n)) - set(kept)
        assert dropped <= _forest_vertices(forest)


def _bundle(p, u: int, w: int) -> set:
    """All product edges between the fibers above u and w."""
    n2 = p.n2
    return {(a, b) for a, b in p.graph.edges
            if {a // n2, b // n2} == {u, w}}


def test_matching_decomposition_structure():
    # matching j sends parent copy t to child copy (t + j) mod n2
    p = lexicographic(path(2), complete(4))
    for j, shift in zip(range(1, 5), (1, 2, 3, 0)):
        assert p.matching_copy([(0, 1)], j) == [
            (t, 4 + (t + shift) % 4) for t in range(4)]
    # oriented the other way, the parent copies sit in the higher fiber
    assert p.matching_copy([(1, 0)], 1) == [(1, 4), (2, 5), (3, 6), (0, 7)]
    assert lexicographic(path(2), path(1)).matching_copy([(0, 1)], 1) == [(0, 1)]


def test_matchings_partition_bundle():
    h = complete(4)
    p = lexicographic(path(2), h)
    all_edges: set = set()
    for j in range(1, 5):
        m = p.matching_copy([(0, 1)], j)
        assert len(m) == 4
        ends = [v for e in m for v in e]
        assert len(set(ends)) == 8    # perfect matching
        assert not all_edges & set(m)
        all_edges.update(m)
    assert all_edges == _bundle(p, 0, 1)


def test_identity_matching_is_cross_section():
    p = lexicographic(path(2), path(3))
    identity = p.matching_copy([(0, 1)], 3)
    assert set(identity) == {(0, 3), (1, 4), (2, 5)}
    assert [identity[v::3] for v in range(3)] == [[(0, 3)], [(1, 4)], [(2, 5)]]
    # over a relabelled (min, max) spanning tree, the identity matching is
    # every cross section, as pack_cartesian takes them, and its slice
    # [v::n2] is the cross section at v, as pack_lex takes it
    rng = random.Random(5)
    n1, n2 = 9, 4
    label = rng.sample(range(n1), n1)
    tree = as_tree((label[rng.randrange(v)], label[v]) for v in range(1, n1))
    p = cartesian(path(n1), path(n2))
    identity = p.matching_copy(tree, n2)
    for v in range(n2):
        assert identity[v::n2] == [(a * n2 + v, b * n2 + v) for a, b in tree]


def test_perfect_cycles_cover_even_bundle():
    r = 6
    p = lexicographic(path(2), path(r))
    seen: set = set()
    for idx in range(1, r // 2 + 1):
        cyc = (p.matching_copy([(0, 1)], 2 * idx - 1)
               + p.matching_copy([(0, 1)], 2 * idx))
        assert is_one_cycle(cyc, 2 * r)   # one Hamiltonian cycle
        assert not seen & set(cyc)
        seen.update(cyc)
    assert seen == _bundle(p, 0, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.booleans())
def test_bundle_matchings_any_size(n2, flip):
    """Matchings 1..n2 partition the bundle, (2r-1, 2r) is one 2*n2-cycle and
    matching n2 is the identity, whichever fiber is the parent."""
    p = lexicographic(path(2), path(n2))
    e = (1, 0) if flip else (0, 1)
    matchings = [p.matching_copy([e], j) for j in range(1, n2 + 1)]
    union = [x for m in matchings for x in m]
    assert len(union) == len(set(union)) == n2 * n2
    assert set(union) == _bundle(p, 0, 1)
    for m in matchings:
        assert len({v for x in m for v in x}) == 2 * n2   # perfect matching
    assert set(matchings[-1]) == {(t, n2 + t) for t in range(n2)}
    if n2 >= 2:
        for r in range(1, n2 // 2 + 1):
            assert is_one_cycle(matchings[2 * r - 2] + matchings[2 * r - 1],
                                 2 * n2)


def test_parallel_subgraph_lex_components():
    """Parallel subgraph (t, j): matching j over every bundle of tree t,
    oriented from root 0, as pack_lex takes it."""
    g, h = path(3), complete(4)
    p = lexicographic(g, h)
    oriented = root_tree(g.n, g.edges)
    for j in range(1, 5):
        ps = p.matching_copy(oriented, j)
        assert len(ps) == (g.n - 1) * h.n
        comps = components(p.graph.n, ps)
        assert len(comps) == h.n
        for comp in comps:
            assert len(comp) == g.n
            # one vertex per fiber
            assert sorted(v // h.n for v in comp) == list(range(g.n))
    union = {e for j in range(1, 5) for e in p.matching_copy(oriented, j)}
    fiber_edges = {e for u in range(g.n) for e in p.fiber_copy(h.edges, u)}
    assert union == set(p.graph.edges) - fiber_edges


def test_extract_spanning_tree():
    """pack_lex's g_rich trees: root_tree of a connected union, as (min, max)
    edges."""
    def extract(n, edges):
        return tuple(sorted(normalize_edge(*e) for e in root_tree(n, edges)))

    c4 = cycle(4)
    ext = extract(c4.n, c4.edges)
    assert ext == ((0, 1), (0, 3), (1, 2))
    # a spanning tree comes back unchanged, and edge order does not matter
    assert extract(c4.n, ext) == ext
    assert extract(c4.n, [(2, 3), (1, 2), (0, 3), (0, 1)]) == ext
    _, kept, _ = leaf_split(c4.n, ext)
    assert kept == (0, 3)
