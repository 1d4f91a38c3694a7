import random

import pytest

from treepack.cartesian import (KEEPS_FOREST, KEEPS_SUBTREE, build_hat_tree,
                                cartesian_bound, default_assignment,
                                pack_cartesian, plan_cross_edges)
from treepack.core import (ConstructionError, ContractError, EdgeSet, Graph,
                           InputError, TreePacking, complete,
                           complete_multipartite, cycle, hypercube, path)
from treepack.decomp import leaf_split, root_tree
from treepack.oracle import max_packing
from treepack.products import cartesian
from treepack.verify import verify_packing, verify_tree


def spanning(g: Graph) -> EdgeSet:
    return max_packing(g).packing.trees[0]


def test_cartesian_bound():
    assert cartesian_bound(1, 1) == 1
    assert cartesian_bound(2, 2) == 3
    assert cartesian_bound(3, 1) == 3
    with pytest.raises(InputError):
        cartesian_bound(0, 1)


def test_default_assignment_counts():
    g = complete(6)
    tk = root_tree(spanning(g), 0)
    assignment = default_assignment(tk)
    assert len(assignment) == 5
    kinds = list(assignment.values())
    assert kinds.count(KEEPS_SUBTREE) == 2    # floor(5/2)
    assert kinds.count(KEEPS_FOREST) == 3     # the odd fiber keeps the forest
    # the first fibers in search order keep the subtree
    assert [assignment[f] for f in tk.order[1:]] == kinds


def test_plan_cross_edges_known_split():
    # the 7-vertex tree whose split keeps vertices {3,4,5,6}
    host = Graph.from_edges(7, [(0, 3), (1, 5), (2, 5), (3, 4), (3, 5), (3, 6)])
    split = leaf_split(root_tree(EdgeSet.of(host, host.edges), 0))
    g2 = path(2)
    tk = root_tree(EdgeSet.of(g2, g2.edges), 0)

    plan = plan_cross_edges(tk, split, {1: KEEPS_FOREST})
    entry = plan.entries[0]
    assert [a % 7 for a, _ in entry.used] == [3, 4, 5, 6]   # at kept vertices
    assert len(entry.used) == 4                             # ceil(7/2)
    assert [a % 7 for a, _ in entry.leftover] == [0, 1, 2]

    plan = plan_cross_edges(tk, split, {1: KEEPS_SUBTREE})
    entry = plan.entries[0]
    assert [a % 7 for a, _ in entry.used] == [0, 1, 2, 3]   # dropped + anchor
    assert len(entry.used) == 4                             # floor(7/2)+1
    assert [a % 7 for a, _ in entry.leftover] == [4, 5, 6]


def test_plan_partitions_every_bundle():
    g, h = complete(5), cycle(6)
    tk = root_tree(spanning(g), 0)
    split = leaf_split(root_tree(spanning(h), 0))
    plan = plan_cross_edges(tk, split, default_assignment(tk))
    product = cartesian(g, h)
    assert len(plan.entries) == g.n - 1
    for entry in plan.entries:
        rungs = set(product.rung_edges((entry.parent, entry.child)))
        used, leftover = set(entry.used), set(entry.leftover)
        assert used | leftover == rungs
        assert not used & leftover


def test_plan_requires_full_assignment():
    g = path(3)
    tk = root_tree(EdgeSet.of(g, g.edges), 0)
    h = path(4)
    split = leaf_split(root_tree(EdgeSet.of(h, h.edges), 0))
    with pytest.raises(ContractError, match="assignment"):
        plan_cross_edges(tk, split, {1: KEEPS_FOREST})


def test_build_hat_tree_small_and_counts():
    for g, h in [(path(2), path(2)), (path(3), path(3)), (complete(4), cycle(5))]:
        product = cartesian(g, h)
        tk = root_tree(spanning(g), 0)
        t_ell = spanning(h)
        split = leaf_split(root_tree(t_ell, 0))
        assignment = default_assignment(tk)
        plan = plan_cross_edges(tk, split, assignment)
        hat = build_hat_tree(product, tk, t_ell, split, assignment, plan)
        assert len(hat) == g.n * h.n - 1
        assert verify_tree(product.graph, hat).overall


def test_build_hat_tree_rejects_mismatched_split():
    g, h = path(3), path(4)
    product = cartesian(g, h)
    tk = root_tree(spanning(g), 0)
    t_ell = spanning(h)
    assignment = default_assignment(tk)
    plan = plan_cross_edges(tk, leaf_split(root_tree(t_ell, 0)), assignment)
    other_tree = spanning(cycle(4))       # same size, different edges
    wrong = leaf_split(root_tree(other_tree, 0))
    with pytest.raises(ContractError, match="split"):
        build_hat_tree(product, tk, t_ell, wrong, assignment, plan)


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
    first = set(out.trees[0].edges)
    for v in range(h.n):
        for a, b in pg.trees[0]:
            assert (a * h.n + v, b * h.n + v) in first


def test_pack_cartesian_single_vertex_factor():
    k1 = path(1)
    pk1 = TreePacking(k1, (EdgeSet.of(k1, ()),))
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
    cyclic = TreePacking(k4, (EdgeSet.of(k4, [(0, 1), (1, 2), (0, 2)]),))
    with pytest.raises(ContractError, match="tree 0"):
        pack_cartesian(k4, p3, cyclic, max_packing(p3).packing)
    with pytest.raises(ContractError, match="host"):
        pack_cartesian(p3, k4, pk4, pk4)
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
