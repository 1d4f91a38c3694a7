"""Packing spanning trees in a cartesian product from factor packings.

Given k edge-disjoint spanning trees of G and l of H, this builds k+l-1 of
G x H.  One designated tree per factor is sacrificed: the H-tree is split
into a kept subtree and a leaf forest, whose fiber copies plus a planned set
of cross edges assemble into a backbone tree.  The remaining factor trees are
completed with the copies and cross edges the backbone leaves unused.
"""

from __future__ import annotations

from .core import ConstructionError, Edge, Graph, InputError, TreePacking
from .decomp import leaf_split, root_tree
from .products import cartesian
from .verify import check_packing, verified_packing


def cartesian_bound(k: int, ell: int) -> int:
    """Trees delivered from factor packings of sizes k and ell: k + ell - 1."""
    if k < 1 or ell < 1:
        raise InputError("factor packing sizes must be >= 1")
    return k + ell - 1


def pack_cartesian(g: Graph, h: Graph, pack_g: TreePacking,
                   pack_h: TreePacking) -> TreePacking:
    """Build k + l - 1 edge-disjoint spanning trees of the cartesian product.

    The last tree of each factor packing is the sacrificed pair; earlier
    first-factor trees are completed with split copies at fibers the backbone
    does not use, earlier second-factor trees with one leftover rung per
    bundle.
    """
    check_packing(pack_g, g, "first factor packing")
    check_packing(pack_h, h, "second factor packing")
    k = len(pack_g.trees)
    ell = len(pack_h.trees)
    product = cartesian(g, h)

    n2 = h.n
    tk = root_tree(g.n, pack_g.trees[-1])   # (parent, child), breadth-first
    t_ell = pack_h.trees[-1]
    split = leaf_split(n2, t_ell)
    # the first floor((n1-1)/2) child fibers, breadth-first, keep the split's
    # subtree copy; the rest, the odd fiber out included, keep its forest
    children = [child for _, child in tk]
    cut = len(children) // 2

    # Rungs that glue each child fiber to its parent fiber.  A fiber keeping
    # the forest copy needs one at every kept-subtree vertex (the forest
    # roots sit there, the rest must be reached directly); a fiber keeping
    # the subtree copy needs one at every dropped vertex plus one at the
    # smallest kept vertex to anchor the subtree itself.
    kept = sorted(split.subtree_vertices)
    forest_rungs = set(kept)
    subtree_rungs = set(range(n2)) - set(kept[1:])
    backbone = product.fiber_copy(t_ell, 0)   # the root fiber keeps all of t_ell
    leftover: list[list[Edge]] = []   # per bundle, ascending second coordinate
    for idx, (parent, child) in enumerate(tk):
        keeps_subtree = idx < cut
        used = subtree_rungs if keeps_subtree else forest_rungs
        backbone.extend(product.fiber_copy(
            split.subtree if keeps_subtree else split.forest, child))
        rungs = product.matching_copy([(parent, child)], n2)
        backbone.extend(rungs[v] for v in used)
        leftover.append([rungs[v] for v in range(n2) if v not in used])

    # fibers whose subtree (resp. forest) copy the backbone left unused
    free_subtree, free_forest = children[cut:], children[:cut]
    if k - 1 > min(len(free_subtree), len(free_forest)):
        raise ConstructionError(
            f"not enough spare fibers: need {k - 1}, have "
            f"{len(free_subtree)} subtree and {len(free_forest)} forest copies")
    min_leftover = min(map(len, leftover), default=0)
    if leftover and ell - 1 > min_leftover:
        raise ConstructionError(
            f"not enough leftover rungs: need {ell - 1} per bundle, "
            f"have {min_leftover}")

    # (min, max) copies of checked factor trees: verified_packing below is
    # their only check
    trees: list[tuple[Edge, ...]] = []
    for i in range(k - 1):
        edges = product.fiber_copy(split.subtree, free_subtree[i])
        edges.extend(product.fiber_copy(split.forest, free_forest[i]))
        for v in range(n2):
            edges.extend(product.cross_section_copy(pack_g.trees[i], v))
        trees.append(tuple(sorted(edges)))
    for j in range(ell - 1):
        edges = [rungs[j] for rungs in leftover]
        for u in range(g.n):
            edges.extend(product.fiber_copy(pack_h.trees[j], u))
        trees.append(tuple(sorted(edges)))
    trees.append(tuple(sorted(backbone)))

    return verified_packing(product.graph, trees, "constructed-cartesian",
                            cartesian_bound(k, ell))
