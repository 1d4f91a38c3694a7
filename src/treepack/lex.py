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

from .core import Edge, Graph, InputError, TreePacking
from .decomp import extract_spanning_tree, root_tree
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


def pack_lex(g: Graph, h: Graph, pack_g: TreePacking,
             pack_h: TreePacking) -> TreePacking:
    """Build the guaranteed number of edge-disjoint spanning trees of G o H."""
    check_packing(pack_g, g, "first factor packing")
    check_packing(pack_h, h, "second factor packing")
    if g.n < 2 or h.n < 2:
        raise InputError("both factors need at least 2 vertices")
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

    def section_tree(t: int, v: int) -> tuple[Edge, ...]:
        """Every fiber copy of H-tree t, joined by the cross-section copy at v
        of the held-back last G-tree."""
        edges = product.cross_section_copy(pack_g.trees[k - 1], v)
        for u in range(n1):
            edges.extend(product.fiber_copy(pack_h.trees[t], u))
        return tuple(sorted(edges))

    reserved = (k - 1, n2)   # the identity matching of the last G-tree
    # (min, max) copies of checked factor trees: verified_packing below is
    # their only check
    trees: list[tuple[Edge, ...]] = []

    if plan.case == BALANCED:
        subs = [(i, j) for i in range(k) for j in range(1, n2 + 1)]
        fibers = [(t, s) for t in range(ell) for s in range(n1)]
        for (i, j), (t, s) in zip(subs, fibers):
            trees.append(tuple(sorted(product.matching_copy(oriented[i], j)
                                      + product.fiber_copy(pack_h.trees[t], s))))

    elif plan.case == H_RICH:
        subs = [(i, j) for i in range(k) for j in range(1, n2 + 1)
                if (i, j) != reserved]
        fibers = [(t, s) for t in range(plan.x) for s in range(n1)]
        for (i, j), (t, s) in zip(subs, fibers):
            trees.append(tuple(sorted(product.matching_copy(oriented[i], j)
                                      + product.fiber_copy(pack_h.trees[t], s))))
        for t in range(plan.x, ell):
            trees.append(section_tree(t, t - plan.x))

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
        consumed = {(i, 2 * r - 1) for i, r in taken}
        consumed.update((i, 2 * r) for i, r in taken)
        singles = [(i, j) for i in range(k) for j in range(1, n2 + 1)
                   if (i, j) != reserved and (i, j) not in consumed]
        for (i, j), cyc in zip(singles, cycles):
            trees.append(extract_spanning_tree(
                product.graph.n, product.matching_copy(oriented[i], j) + cyc))

    return verified_packing(product.graph, trees, "constructed-lex",
                            plan.tree_count)
