import pytest

from treepack.core import (InputError, TreePacking, complete,
                           complete_minus_edge, complete_multipartite, cycle,
                           path)
from treepack.lex import BALANCED, G_RICH, H_RICH, lex_plan, pack_lex
from treepack.oracle import max_packing
from treepack.products import lexicographic
from treepack.verify import verify_packing


def _packs(g, h):
    return max_packing(g).packing, max_packing(h).packing


def test_lex_bound_cases():
    for args, case, count in (((1, 2, 3, 4), H_RICH, 4),
                              ((1, 1, 2, 2), BALANCED, 2),
                              ((2, 1, 5, 3), G_RICH, 4),
                              ((1, 1, 4, 3), H_RICH, 3 - 1 + 0),
                              ((3, 3, 4, 4), BALANCED, 12)):
        plan = lex_plan(*args)
        assert (plan.case, plan.tree_count) == (case, count), args
    with pytest.raises(InputError):
        lex_plan(0, 1, 2, 2)


def test_lex_plan_budgets():
    plan = lex_plan(1, 2, 3, 4)
    assert plan.case == H_RICH and plan.x == 1 and plan.tree_count == 4
    plan = lex_plan(2, 1, 5, 3)
    assert plan.case == G_RICH and plan.x == 1 and plan.tree_count == 4
    plan = lex_plan(1, 1, 2, 2)
    assert plan.case == BALANCED and plan.x == 0 and plan.tree_count == 2


def test_pack_lex_balanced_k2_k2():
    g = complete(2)
    out = pack_lex(g, g, *_packs(g, g))
    assert len(out.trees) == 2
    assert out.method == "constructed-lex"
    assert verify_packing(out.host, out).overall
    # the product is K4, whose packing number is 2
    assert max_packing(out.host).sigma == 2


def test_pack_lex_h_rich_p3_k4():
    g, h = path(3), complete(4)
    out = pack_lex(g, h, *_packs(g, h))
    assert len(out.trees) == 4
    assert verify_packing(out.host, out).overall
    assert max_packing(out.host).sigma == 4
    assert out.host.m // (out.host.n - 1) == 4   # edge bound: 50 // 11


def test_pack_lex_g_rich_k5_p3():
    g, h = complete(5), path(3)
    out = pack_lex(g, h, *_packs(g, h))
    assert len(out.trees) == 4
    assert verify_packing(out.host, out).overall
    assert max_packing(out.host).sigma >= 4


def test_pack_lex_more_cases_all_regimes():
    cases = [
        (path(2), path(2)),                       # balanced 1x1
        (cycle(4), cycle(4)),                     # balanced
        (cycle(3), complete_multipartite(3, 2)),  # balanced with l=2
        (complete(4), path(2)),                   # balanced with k=2
        (path(4), complete(4)),                   # h_rich
        (complete(5), path(2)),                   # h_rich with k=2
        (complete(4), path(3)),                   # g_rich k=2
        (complete(6), path(4)),                   # g_rich k=3, even fiber
        (complete(6), path(3)),                   # g_rich k=3, odd fiber
    ]
    for g, h in cases:
        pg, ph = _packs(g, h)
        plan = lex_plan(len(pg.trees), len(ph.trees), g.n, h.n)
        out = pack_lex(g, h, pg, ph)
        assert len(out.trees) == plan.tree_count, (plan.case, g.n, h.n)
        assert verify_packing(out.host, out).overall
        multiset = [e for t in out.trees for e in t]
        assert len(multiset) == len(set(multiset))


def test_pack_lex_bound_never_beats_oracle():
    for g, h in [(path(3), complete(4)), (complete(2), complete(2)),
                 (complete(4), path(3))]:
        pg, ph = _packs(g, h)
        out = pack_lex(g, h, pg, ph)
        assert len(out.trees) <= max_packing(out.host).sigma


def test_sparse_complete_graph_edge_bound_erratum():
    # K4 minus an edge has 5 edges: two disjoint spanning trees would need 6,
    # so its packing number is 1, whatever else is claimed for it.
    g = complete_minus_edge(4)
    assert g.m // (g.n - 1) == 1
    assert max_packing(g).sigma == 1
    # with honest factor packings the product construction still works
    h = path(3)
    out = pack_lex(g, h, *_packs(g, h))
    plan = lex_plan(1, 1, 4, 3)
    assert plan.case == H_RICH and plan.tree_count == 2
    assert len(out.trees) == 2
    assert verify_packing(out.host, out).overall
    assert lexicographic(g, h).graph.m == 53


def test_pack_lex_rejects_tiny_factors():
    p1, p2 = path(1), path(2)
    pk1 = TreePacking(p1, ((),))
    pk2 = max_packing(p2).packing
    with pytest.raises(InputError):
        pack_lex(p2, p1, pk2, pk1)
    with pytest.raises(InputError):
        pack_lex(p1, p2, pk1, pk2)


def test_pack_lex_deterministic():
    g, h = complete(5), path(3)
    pg, ph = _packs(g, h)
    a = pack_lex(g, h, pg, ph)
    b = pack_lex(g, h, pg, ph)
    assert a.trees == b.trees


def test_pack_lex_identity_components_feed_unbalanced_cases():
    # h_rich with l > x: later trees must each use one cross-section copy
    g, h = path(3), complete(4)
    pg, ph = _packs(g, h)
    out = pack_lex(g, h, pg, ph)
    # the last tree pairs fiber copies of the second H-tree with a
    # cross-section copy of the last G-tree at the first section
    last = set(out.trees[-1])
    n2 = h.n
    cross = {(a * n2 + 0, b * n2 + 0) for a, b in pg.trees[-1]}
    assert cross <= last
