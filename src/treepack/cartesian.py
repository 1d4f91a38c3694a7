"""Packing spanning trees in a cartesian product from factor packings.

Given k edge-disjoint spanning trees of G and l of H, this builds k+l-1 of
G x H.  One designated tree per factor is sacrificed: the H-tree is split
into a kept subtree and a leaf forest, whose fiber copies plus a planned set
of cross edges assemble into a backbone tree.  The remaining factor trees are
completed with the copies and cross edges the backbone leaves unused.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .core import Edge, Graph, InputError, TreePacking, normalize_edge, root_tree
from .products import cartesian
from .verify import check_packing, verified_packing


class LeafSplit(NamedTuple):
    """A spanning tree cut into a kept subtree and the deleted leaf forest.

    ``subtree_vertices`` has ceil(n/2) members.  Each forest component
    touches the subtree in exactly one vertex, its attachment root.
    """

    subtree: tuple[Edge, ...]
    subtree_vertices: frozenset[int]
    forest: tuple[Edge, ...]


def leaf_split(n: int, tree: tuple[Edge, ...]) -> LeafSplit:
    """Delete leaves of a spanning tree of 0..n-1 until ceil(n/2) vertices
    remain.

    Deterministic: each step removes the current leaf with the smallest
    vertex index.
    """
    target = (n + 1) // 2
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in tree:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    leaves = [v for v in range(n) if len(adj[v]) == 1]   # ascending, so a heap
    deleted: list[Edge] = []
    # the loop runs while a tree of >= 2 vertices is alive, so each of its
    # leaves has exactly one alive neighbor, and a vertex becomes a leaf once
    while len(alive) > target:
        leaf = heapq.heappop(leaves)
        (anchor,) = adj[leaf]
        deleted.append(normalize_edge(leaf, anchor))
        adj[anchor].discard(leaf)
        alive.remove(leaf)
        if len(adj[anchor]) == 1:
            heapq.heappush(leaves, anchor)
    gone = set(deleted)
    subtree = tuple(e for e in tree if e not in gone)
    return LeafSplit(subtree, frozenset(alive), tuple(sorted(deleted)))


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

    # fibers whose subtree (resp. forest) copy the backbone left unused: at
    # least cut >= k-1 of each, and every bundle leaves at least
    # ceil(n2/2)-1 >= ell-1 rungs (k <= n1//2 and ell <= n2//2 on n >= 2)
    free_subtree, free_forest = children[cut:], children[:cut]

    # (min, max) copies of checked factor trees: verified_packing below is
    # their only check
    trees: list[list[Edge]] = []
    for i in range(k - 1):
        edges = product.fiber_copy(split.subtree, free_subtree[i])
        edges.extend(product.fiber_copy(split.forest, free_forest[i]))
        edges.extend(product.matching_copy(pack_g.trees[i], n2))   # every cross section
        trees.append(edges)
    for j in range(ell - 1):
        edges = [rungs[j] for rungs in leftover]
        for u in range(g.n):
            edges.extend(product.fiber_copy(pack_h.trees[j], u))
        trees.append(edges)
    trees.append(backbone)

    return verified_packing(product.graph, trees, "constructed-cartesian",
                            cartesian_bound(k, ell))
