import random

import pytest

from treepack.core import (ContractError, EdgeSet, ExtractionError, Graph,
                           InputError, complete, components, cycle, path)
from treepack.decomp import (extract_spanning_tree, leaf_split,
                             matching_decomposition, parallel_subgraph_lex,
                             root_tree)
from treepack.products import cartesian, lexicographic


def _tree(host: Graph) -> EdgeSet:
    return extract_spanning_tree(host, EdgeSet.of(host, host.edges))


def _forest_components(sp) -> tuple:
    """Vertex sets of a leaf split's forest components (no singletons)."""
    return tuple(c for c in components(sp.source.host.n, sp.forest.edges)
                 if len(c) > 1)


def test_root_tree_orders_breadth_first():
    g = path(4)
    rt = root_tree(EdgeSet.of(g, g.edges), 0)
    assert rt.order == (0, 1, 2, 3)
    assert rt.parent == (0, 0, 1, 2)
    assert list(rt.edges_bfs()) == [(0, 1), (1, 2), (2, 3)]
    star = EdgeSet.of(complete(4), [(0, 1), (0, 2), (0, 3)])
    rt2 = root_tree(star, 2)
    assert rt2.order == (2, 0, 1, 3)


def test_root_tree_rejects_non_trees():
    g = cycle(4)
    with pytest.raises(ContractError):
        root_tree(EdgeSet.of(g, g.edges))
    with pytest.raises(ContractError):
        root_tree(EdgeSet.of(g, [(0, 1)]))
    with pytest.raises(ContractError):
        root_tree(_tree(g), root=9)


def test_leaf_split_known_seven_vertex_tree():
    # star-like tree whose deterministic split keeps {3,4,5,6}
    host = Graph.from_edges(7, [(0, 3), (1, 5), (2, 5), (3, 4), (3, 5), (3, 6)])
    sp = leaf_split(root_tree(EdgeSet.of(host, host.edges), 0))
    assert sp.subtree.edges == ((3, 4), (3, 5), (3, 6))
    assert sp.subtree_vertices == frozenset({3, 4, 5, 6})
    assert sp.forest.edges == ((0, 3), (1, 5), (2, 5))
    assert sp.forest_vertices == frozenset({0, 1, 2, 3, 5})
    # attachment roots: kept vertices the forest touches
    assert sp.subtree_vertices & sp.forest_vertices == frozenset({3, 5})
    assert _forest_components(sp) == ((0, 3), (1, 2, 5))


def test_leaf_split_path_and_single_edge():
    p4 = path(4)
    sp = leaf_split(root_tree(EdgeSet.of(p4, p4.edges), 0))
    assert sp.subtree_vertices == frozenset({2, 3})
    assert sp.forest.edges == ((0, 1), (1, 2))

    p2 = path(2)
    sp2 = leaf_split(root_tree(EdgeSet.of(p2, p2.edges), 0))
    assert sp2.subtree_vertices == frozenset({1})
    assert sp2.subtree.edges == ()
    assert sp2.forest.edges == ((0, 1),)

    p1 = path(1)
    sp3 = leaf_split(root_tree(EdgeSet.of(p1, ()), 0))
    assert sp3.subtree_vertices == frozenset({0})
    assert sp3.forest.edges == ()


def test_leaf_split_invariants_random_trees():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 12)
        edges = sorted((rng.randrange(v), v) for v in range(1, n))
        host = Graph.from_edges(n, edges)
        sp = leaf_split(root_tree(EdgeSet.of(host, host.edges), 0))
        assert len(sp.subtree_vertices) == (n + 1) // 2
        assert len(sp.forest) == n // 2
        assert set(sp.subtree.edges) | set(sp.forest.edges) == set(edges)
        assert not set(sp.subtree.edges) & set(sp.forest.edges)
        # kept part is a tree on its vertex set
        assert len(sp.subtree) == len(sp.subtree_vertices) - 1
        # each forest component holds exactly one kept vertex
        for comp in _forest_components(sp):
            assert len(set(comp) & sp.subtree_vertices) == 1
        # dropped vertices all appear in the forest
        dropped = set(range(n)) - sp.subtree_vertices
        assert dropped <= sp.forest_vertices


def test_matching_decomposition_structure():
    md = matching_decomposition(4)
    assert md.shifts == (1, 2, 3, 0)
    assert md.identity_index == 4
    assert md.cycle_count == 2
    assert md.shift_of(4) == 0
    with pytest.raises(InputError):
        md.shift_of(0)
    with pytest.raises(InputError):
        md.shift_of(5)
    assert matching_decomposition(1).shifts == (0,)
    with pytest.raises(InputError):
        matching_decomposition(0)


def test_matchings_partition_bundle():
    h = complete(4)
    p = lexicographic(path(2), h)
    md = matching_decomposition(4)
    all_edges: set = set()
    for j in range(1, 5):
        m = md.matching_edges(p, 0, 1, j)
        assert len(m) == 4
        ends = [v for e in m for v in e]
        assert len(set(ends)) == 8    # perfect matching
        assert not all_edges & set(m)
        all_edges.update(m)
    assert all_edges == set(p.bundle((0, 1)).edges)


def test_identity_matching_is_cross_section():
    p = lexicographic(path(2), path(3))
    md = matching_decomposition(3)
    m = md.matching_edges(p, 0, 1, md.identity_index)
    assert set(m) == {(0, 3), (1, 4), (2, 5)}


def test_perfect_cycles_cover_even_bundle():
    r = 6
    p = lexicographic(path(2), path(r))
    md = matching_decomposition(r)
    seen: set = set()
    for idx in range(1, md.cycle_count + 1):
        cyc = md.cycle_edges(p, 0, 1, idx)
        assert len(cyc) == 2 * r
        verts = {v for e in cyc for v in e}
        assert len(verts) == 2 * r
        deg: dict = {}
        for a, b in cyc:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        assert all(d == 2 for d in deg.values())
        packed = {v: i for i, v in enumerate(sorted(verts))}
        comp = components(len(packed), [(packed[a], packed[b]) for a, b in cyc])
        assert len(comp) == 1         # one Hamiltonian cycle
        assert not seen & set(cyc)
        seen.update(cyc)
    assert seen == set(p.bundle((0, 1)).edges)


def test_cycle_index_bounds():
    p = lexicographic(path(2), path(5))
    md = matching_decomposition(5)
    with pytest.raises(InputError):
        md.cycle_edges(p, 0, 1, 3)
    with pytest.raises(InputError):
        md.matching_edges(p, 0, 2, 1)   # not a factor edge
    with pytest.raises(InputError):
        md.matching_edges(cartesian(path(2), path(5)), 0, 1, 1)
    with pytest.raises(ContractError):
        matching_decomposition(4).matching_edges(p, 0, 1, 1)


def test_parallel_subgraph_lex_components():
    g, h = path(3), complete(4)
    p = lexicographic(g, h)
    t = EdgeSet.of(g, g.edges)
    for j in range(1, 5):
        ps = parallel_subgraph_lex(p, t, j)
        assert len(ps.edges) == (g.n - 1) * h.n
        comps = components(p.graph.n, ps.edges)
        assert len(comps) == h.n
        for comp in comps:
            assert len(comp) == g.n
            # one vertex per fiber
            assert sorted(v // h.n for v in comp) == list(range(g.n))
    union = {e for j in range(1, 5)
             for e in parallel_subgraph_lex(p, t, j).edges}
    fiber_edges = {e for u in range(g.n) for e in p.fiber_copy(h.edges, u)}
    assert union == p.graph.edge_set - fiber_edges


def test_parallel_subgraph_lex_errors():
    p = lexicographic(path(3), path(2))
    t = EdgeSet.of(path(3), path(3).edges)
    with pytest.raises(InputError):
        parallel_subgraph_lex(p, t, 0)
    with pytest.raises(InputError):
        parallel_subgraph_lex(cartesian(path(3), path(2)), t, 1)
    with pytest.raises(ContractError):
        parallel_subgraph_lex(p, EdgeSet.of(path(3), [(0, 1)]), 1)


def test_extract_spanning_tree():
    c4 = cycle(4)
    full = EdgeSet.of(c4, c4.edges)
    ext = extract_spanning_tree(c4, full)
    assert ext.edges == ((0, 1), (0, 3), (1, 2))
    # a spanning tree comes back unchanged
    assert extract_spanning_tree(c4, ext).edges == ext.edges
    with pytest.raises(ExtractionError, match="vertex 3"):
        extract_spanning_tree(c4, EdgeSet.of(c4, [(0, 1), (1, 2)]))
