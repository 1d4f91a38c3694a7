"""Packing spanning trees in a lexicographic product from factor packings.

With k trees of G and l trees of H, every tree of G spawns n2 edge-disjoint
parallel subgraphs (one per matching index), and every tree of H spawns n1
fiber copies.  Three regimes, split on the sign of l*n1 - k*n2, pair these
resources into spanning trees; the identity realization of the last G-tree is
held back because its components are the cross-section copies the two
unbalanced regimes consume.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Edge, Graph, InputError, TreePacking, normalize_edge, root_tree
from .products import lexicographic
from .verify import check_packing, verified_packing

BALANCED = "balanced"
H_RICH = "h_rich"
G_RICH = "g_rich"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class LexPlan(NamedTuple):
    """Case selection and resource budget for one product packing."""

    case: str
    x: int
    tree_count: int


def lex_plan(k: int, ell: int, n1: int, n2: int) -> LexPlan:
    """Regime, budget x and guaranteed tree count for the lexicographic product.

    balanced (l*n1 = k*n2): k*n2 trees; fiber-tree surplus (l*n1 > k*n2):
    x = ceil((k*n2-1)/n1) and k*n2 - x + l - 1 trees; subgraph surplus
    (l*n1 < k*n2): x = ceil((k*n2-1)/(n1+1)) and k*n2 - 2x + l - 1 trees.
    """
    if min(k, ell, n1, n2) < 1:
        raise InputError("k, ell, n1, n2 must all be >= 1")
    if ell * n1 == k * n2:
        return LexPlan(BALANCED, 0, k * n2)
    if ell * n1 > k * n2:
        x = _ceil_div(k * n2 - 1, n1)
        return LexPlan(H_RICH, x, k * n2 - x + ell - 1)
    x = _ceil_div(k * n2 - 1, n1 + 1)
    return LexPlan(G_RICH, x, k * n2 - 2 * x + ell - 1)


def _check_sizes(g: Graph, h: Graph) -> None:
    """InputError unless both factors have the two vertices a bundle needs."""
    if g.n < 2 or h.n < 2:
        raise InputError("both factors need at least 2 vertices")


def pack_lex(g: Graph, h: Graph, pack_g: TreePacking,
             pack_h: TreePacking) -> TreePacking:
    """Build the guaranteed number of edge-disjoint spanning trees of G o H."""
    check_packing(pack_g, g, "first factor packing")
    check_packing(pack_h, h, "second factor packing")
    _check_sizes(g, h)
    k = len(pack_g.trees)
    ell = len(pack_h.trees)
    n1, n2 = g.n, h.n
    plan = lex_plan(k, ell, n1, n2)
    product = lexicographic(g, h)

    # Each G-tree's edges as (parent, child) from root 0.  Parallel subgraph
    # (i, j) is matching_copy(oriented[i], j): n2 components, each meeting
    # every fiber once.  Matchings 1..n2 split an edge's bundle under any
    # orientation, so the n2 subgraphs of one tree are edge-disjoint anyway;
    # the BFS orientation only fixes which product edges each tree gets, and
    # dropping it would change the pinned lex outputs.
    oriented = [root_tree(n1, t) for t in pack_g.trees]
    sections = product.matching_copy(pack_g.trees[k - 1], n2)

    def section_tree(t: int, v: int) -> list[Edge]:
        """Every fiber copy of H-tree t, joined by the cross section at v of
        the held-back last G-tree: slice [v::n2] of its identity matching."""
        edges = sections[v::n2]
        for u in range(n1):
            edges.extend(product.fiber_copy(pack_h.trees[t], u))
        return edges

    # the identity matching of the last G-tree, held back unless balanced
    reserved = None if plan.case == BALANCED else (k - 1, n2)
    subs = [(i, j) for i in range(k) for j in range(1, n2 + 1)
            if (i, j) != reserved]
    # (min, max) copies of checked factor trees: verified_packing below is
    # their only check
    trees: list[list[Edge]] = []

    if plan.case != G_RICH:
        # balanced pairs like H_RICH with x = ell: no section trees are left
        x = ell if plan.case == BALANCED else plan.x
        fibers = [(t, s) for t in range(x) for s in range(n1)]
        for (i, j), (t, s) in zip(subs, fibers):
            trees.append(product.matching_copy(oriented[i], j)
                         + product.fiber_copy(pack_h.trees[t], s))
        for t in range(x, ell):
            trees.append(section_tree(t, t - x))

    else:  # G_RICH
        for t in range(ell):
            trees.append(section_tree(t, t))
        # cycle pair (i, r) burns matchings 2r-1, 2r of tree i; the pair that
        # would touch the reserved identity matching is off limits
        candidates = [(i, r) for i in range(k) for r in range(1, n2 // 2 + 1)
                      if not (i == k - 1 and 2 * r == n2)]
        taken = candidates[:plan.x]
        cycles: list[list[Edge]] = []
        for i, r in taken:
            for e in oriented[i]:
                cycles.append(product.matching_copy([e], 2 * r - 1)
                              + product.matching_copy([e], 2 * r))
        consumed = {(i, j) for i, r in taken for j in (2 * r - 1, 2 * r)}
        singles = [s for s in subs if s not in consumed]
        # the breadth-first spanning tree of a single plus its cycle, a
        # connected union (tests/test_budgets.py)
        for (i, j), cyc in zip(singles, cycles):
            union = product.matching_copy(oriented[i], j) + cyc
            trees.append([normalize_edge(p, c) for p, c in root_tree(n1 * n2, union)])

    return verified_packing(product.graph, trees, "constructed-lex",
                            plan.tree_count)
