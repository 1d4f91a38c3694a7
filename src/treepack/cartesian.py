"""Packing spanning trees in a cartesian product from factor packings.

Given k edge-disjoint spanning trees of G and l of H, this builds k+l-1 of
G x H.  One designated tree per factor is sacrificed: the H-tree is split
into a kept subtree and a leaf forest, whose fiber copies plus a planned set
of cross edges assemble into a backbone tree.  The remaining factor trees are
completed with the copies and cross edges the backbone leaves unused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (ConstructionError, ContractError, Edge, EdgeSet, Graph,
                   InputError, TreePacking, normalize_edge)
from .decomp import LeafSplit, RootedTree, leaf_split, root_tree
from .products import CARTESIAN, ProductGraph, cartesian
from .verify import check_packing, verify_packing

KEEPS_SUBTREE = "keeps_subtree"
KEEPS_FOREST = "keeps_forest"


def cartesian_bound(k: int, ell: int) -> int:
    """Trees delivered from factor packings of sizes k and ell: k + ell - 1."""
    if k < 1 or ell < 1:
        raise InputError("factor packing sizes must be >= 1")
    return k + ell - 1


@dataclass(frozen=True)
class PlanEntry:
    """Cross-edge budget of one backbone tree edge (one bundle of rungs).

    ``used`` rungs go into the backbone tree; ``leftover`` rungs stay free
    for the second group of output trees.  Both are ascending in the second
    coordinate.
    """

    parent: int
    child: int
    child_kind: str
    used: tuple[Edge, ...]
    leftover: tuple[Edge, ...]


@dataclass(frozen=True)
class CrossEdgePlan:
    entries: tuple[PlanEntry, ...]

    def min_leftover(self) -> int:
        return min((len(e.leftover) for e in self.entries), default=0)


def default_assignment(tk: RootedTree) -> dict[int, str]:
    """Assign child fibers: first half (breadth-first) keep the subtree copy.

    Exactly floor((n1-1)/2) fibers keep the subtree; the remainder, including
    the odd fiber out, keep the forest.
    """
    non_root = tk.order[1:]
    cut = len(non_root) // 2
    return {f: (KEEPS_SUBTREE if idx < cut else KEEPS_FOREST)
            for idx, f in enumerate(non_root)}


def plan_cross_edges(tk: RootedTree, split: LeafSplit,
                     assignment: dict[int, str]) -> CrossEdgePlan:
    """Pick the cross edges that attach each child fiber to its parent fiber.

    A fiber keeping the forest copy needs one rung at every kept-subtree
    vertex (the forest roots sit there, the rest must be reached directly).
    A fiber keeping the subtree copy needs a rung at every dropped vertex
    plus one at the smallest kept vertex to anchor the subtree itself.
    """
    n2 = split.source.host.n
    kept = sorted(split.subtree_vertices)
    dropped = sorted(set(range(n2)) - split.subtree_vertices)
    entries = []
    for parent, child in tk.edges_bfs():
        kind = assignment.get(child)
        if kind not in (KEEPS_SUBTREE, KEEPS_FOREST):
            raise ContractError(f"no fiber assignment for child {child}")
        used_v = kept if kind == KEEPS_FOREST else sorted(dropped + kept[:1])
        used_set = set(used_v)
        used = tuple(normalize_edge(parent * n2 + v, child * n2 + v)
                     for v in used_v)
        leftover = tuple(normalize_edge(parent * n2 + v, child * n2 + v)
                         for v in range(n2) if v not in used_set)
        entries.append(PlanEntry(parent, child, kind, used, leftover))
    return CrossEdgePlan(tuple(entries))


def build_hat_tree(product: ProductGraph, tk: RootedTree, t_ell: EdgeSet,
                   split: LeafSplit, assignment: dict[int, str],
                   plan: CrossEdgePlan) -> EdgeSet:
    """Assemble the backbone spanning tree of the product.

    Root fiber gets the whole second-factor tree; every other fiber gets its
    assigned half of the split; the plan's used rungs glue fibers together.
    Its edges are (min, max) copies of checked factor trees, so it is not
    re-validated here: ``pack_cartesian`` verifies the whole packing.
    """
    if product.kind != CARTESIAN:
        raise ContractError("expected a cartesian product")
    if split.source.edges != t_ell.edges:
        raise ContractError("split does not derive from the given tree")
    edges = product.fiber_copy(t_ell, tk.root)
    for fiber, kind in assignment.items():
        part = split.subtree if kind == KEEPS_SUBTREE else split.forest
        edges.extend(product.fiber_copy(part, fiber))
    for entry in plan.entries:
        edges.extend(entry.used)
    return EdgeSet(product.graph, tuple(sorted(edges)))


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

    tk = root_tree(pack_g.trees[-1], 0)
    t_ell = pack_h.trees[-1]
    split = leaf_split(root_tree(t_ell, 0))
    assignment = default_assignment(tk)
    plan = plan_cross_edges(tk, split, assignment)
    backbone = build_hat_tree(product, tk, t_ell, split, assignment, plan)

    # fibers whose subtree (resp. forest) copy the backbone left unused
    free_subtree = [f for f in tk.order[1:] if assignment[f] == KEEPS_FOREST]
    free_forest = [f for f in tk.order[1:] if assignment[f] == KEEPS_SUBTREE]
    if k - 1 > min(len(free_subtree), len(free_forest)):
        raise ConstructionError(
            f"not enough spare fibers: need {k - 1}, have "
            f"{len(free_subtree)} subtree and {len(free_forest)} forest copies")
    if plan.entries and ell - 1 > plan.min_leftover():
        raise ConstructionError(
            f"not enough leftover rungs: need {ell - 1} per bundle, "
            f"have {plan.min_leftover()}")

    # (min, max) copies of checked factor trees: the verify_packing below
    # is their only check
    trees: list[EdgeSet] = []
    for i in range(k - 1):
        edges = product.fiber_copy(split.subtree, free_subtree[i])
        edges.extend(product.fiber_copy(split.forest, free_forest[i]))
        for v in range(product.n2):
            edges.extend(product.cross_section_copy(pack_g.trees[i], v))
        trees.append(EdgeSet(product.graph, tuple(sorted(edges))))
    for j in range(ell - 1):
        edges = [entry.leftover[j] for entry in plan.entries]
        for u in range(product.n1):
            edges.extend(product.fiber_copy(pack_h.trees[j], u))
        trees.append(EdgeSet(product.graph, tuple(sorted(edges))))
    trees.append(backbone)

    packing = TreePacking(product.graph, tuple(trees), "constructed-cartesian")
    if len(trees) != cartesian_bound(k, ell):
        raise ConstructionError(
            f"internal: built {len(trees)} trees, expected {k + ell - 1}")
    report = verify_packing(product.graph, packing)
    if not report.overall:
        raise ConstructionError(
            "internal: constructed packing invalid\n" + report.render())
    return packing
