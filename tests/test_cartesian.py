import random

import pytest

from treepack.cartesian import cartesian_bound, leaf_split, pack_cartesian
from treepack.catalogue import (complete, complete_multipartite, cycle,
                                hypercube, path)
from treepack.core import (ContractError, Graph, InputError, TreePacking,
                           root_tree)
from treepack.oracle import max_packing
from treepack.products import cartesian
from treepack.verify import verify_packing

from reference import graph


def spanning(g: Graph) -> tuple:
    return max_packing(g).packing.trees[0]


def test_cartesian_bound():
    assert cartesian_bound(1, 1) == 1
    assert cartesian_bound(2, 2) == 3
    assert cartesian_bound(3, 1) == 3
    with pytest.raises(InputError):
        cartesian_bound(0, 1)


def _fiber_part(tree: tuple, u: int, n2: int) -> set:
    """The tree's edges inside fiber u, as second-factor edges."""
    return {(a - u * n2, b - u * n2) for a, b in tree
            if a // n2 == b // n2 == u}


def _rungs(tree: tuple, u: int, w: int, n2: int) -> list[int]:
    """Second coordinates of the tree's rungs between fibers u < w."""
    return sorted(a % n2 for a, b in tree if a // n2 == u and b // n2 == w)


def test_default_assignment_counts():
    # the backbone (last tree) holds the whole last H-tree in the root fiber,
    # the split's subtree copy in the first floor(5/2) child fibers of K6,
    # breadth-first, and its forest copy in the other 3, the odd one included
    g, h = complete(6), cycle(5)
    pg, ph = max_packing(g).packing, max_packing(h).packing
    backbone = pack_cartesian(g, h, pg, ph).trees[-1]
    tk = root_tree(g.n, pg.trees[-1])
    split = leaf_split(h.n, ph.trees[-1])
    assert _fiber_part(backbone, 0, h.n) == set(ph.trees[-1])
    parts = [_fiber_part(backbone, f, h.n) for _, f in tk]
    assert parts == [set(split.subtree)] * 2 + [set(split.forest)] * 3


def test_plan_cross_edges_known_split():
    # the 7-vertex tree whose split keeps vertices {3,4,5,6}; over P3 fiber 1
    # keeps the subtree copy and fiber 2 the forest copy
    host = graph(7, [(0, 3), (1, 5), (2, 5), (3, 4), (3, 5), (3, 6)])
    g = path(3)
    (backbone,) = pack_cartesian(
        g, host, TreePacking(g, (g.edges,)),
        TreePacking(host, (host.edges,))).trees
    assert _rungs(backbone, 0, 1, 7) == [0, 1, 2, 3]   # dropped + anchor
    assert _rungs(backbone, 1, 2, 7) == [3, 4, 5, 6]   # at kept vertices


def test_plan_partitions_every_bundle():
    # over each edge of the backbone's G-tree, H-tree j takes the j-th
    # smallest rung the backbone leaves unused
    g, h = complete(5), complete(6)
    pg, ph = max_packing(g).packing, max_packing(h).packing
    k, ell = len(pg.trees), len(ph.trees)
    out = pack_cartesian(g, h, pg, ph)
    product = cartesian(g, h)
    h_trees = out.trees[k - 1:-1]
    assert len(h_trees) == ell - 1 == 2
    tk = root_tree(g.n, pg.trees[-1])
    for parent, child in tk:
        rungs = product.matching_copy([(parent, child)], h.n)
        leftover = [r for r in rungs if r not in out.trees[-1]]
        assert [[r for r in rungs if r in t] for t in h_trees] == [
            [r] for r in leftover[:ell - 1]]


def test_build_hat_tree_small_and_counts():
    for g, h in [(path(2), path(2)), (path(3), path(3)), (complete(4), cycle(5))]:
        out = pack_cartesian(g, h, max_packing(g).packing, max_packing(h).packing)
        hat = out.trees[-1]
        assert len(hat) == g.n * h.n - 1
        assert verify_packing(out.host, TreePacking(out.host, (hat,))).overall


def test_pack_cartesian_examples():
    p2 = path(2)
    one = pack_cartesian(p2, p2, max_packing(p2).packing, max_packing(p2).packing)
    assert len(one.trees) == 1
    assert len(one.trees[0]) == 3

    k4 = complete(4)
    pk4 = max_packing(k4).packing
    three = pack_cartesian(k4, k4, pk4, pk4)
    assert len(three.trees) == 3
    assert three.method == "constructed-cartesian"

    c5 = cycle(5)
    two = pack_cartesian(k4, c5, pk4, max_packing(c5).packing)
    assert len(two.trees) == 2


def test_pack_cartesian_edge_disjoint_by_count():
    g, h = complete(4), complete_multipartite(2, 2)
    out = pack_cartesian(g, h, max_packing(g).packing, max_packing(h).packing)
    multiset = [e for t in out.trees for e in t]
    assert len(multiset) == len(set(multiset))
    assert verify_packing(out.host, out).overall


def test_pack_cartesian_output_order():
    # first k-1 use first-factor trees, next l-1 second-factor trees, backbone last
    g, h = complete(4), complete(4)
    pg = max_packing(g).packing
    ph = max_packing(h).packing
    out = pack_cartesian(g, h, pg, ph)
    # a group-(a) tree contains every cross-section copy of first factor tree 0
    first = set(out.trees[0])
    for v in range(h.n):
        for a, b in pg.trees[0]:
            assert (a * h.n + v, b * h.n + v) in first


def test_pack_cartesian_single_vertex_factor():
    k1 = path(1)
    pk1 = TreePacking(k1, ((),))
    k4 = complete(4)
    pk4 = max_packing(k4).packing
    left = pack_cartesian(k4, k1, pk4, pk1)
    assert len(left.trees) == 2
    right = pack_cartesian(k1, k4, pk1, pk4)
    assert len(right.trees) == 2


def test_pack_cartesian_rejects_bad_packings():
    k4 = complete(4)
    pk4 = max_packing(k4).packing
    p3 = path(3)
    cyclic = TreePacking(k4, (((0, 1), (0, 2), (1, 2)),))
    with pytest.raises(ContractError, match="tree 0"):
        pack_cartesian(k4, p3, cyclic, max_packing(p3).packing)
    with pytest.raises(ContractError) as exc:
        pack_cartesian(p3, k4, pk4, pk4)
    assert str(exc.value) == (
        "first factor packing: tree 0: edges belong to host fails: (0, 3)")
    dup = TreePacking(k4, (pk4.trees[0], pk4.trees[0]))
    with pytest.raises(ContractError, match="pairwise edge-disjoint"):
        pack_cartesian(k4, p3, dup, max_packing(p3).packing)
    empty_host = path(1)
    with pytest.raises(ContractError, match="at least one"):
        pack_cartesian(empty_host, k4, TreePacking(empty_host, ()), pk4)


def test_pack_cartesian_reaches_combined_bound_randomized():
    rng = random.Random(321)
    pool = [path(4), cycle(5), complete(4), complete(5),
            complete_multipartite(2, 2), hypercube(3)]
    sigma = {i: max_packing(g) for i, g in enumerate(pool)}
    for _ in range(12):
        gi, hi = rng.randrange(len(pool)), rng.randrange(len(pool))
        g, h = pool[gi], pool[hi]
        out = pack_cartesian(g, h, sigma[gi].packing, sigma[hi].packing)
        assert len(out.trees) == sigma[gi].sigma + sigma[hi].sigma - 1
        assert verify_packing(out.host, out).overall


def test_pack_cartesian_tight_on_k4_c3():
    g, h = complete(4), cycle(3)
    out = pack_cartesian(g, h, max_packing(g).packing, max_packing(h).packing)
    product_sigma = max_packing(out.host).sigma
    assert len(out.trees) == product_sigma == 2
