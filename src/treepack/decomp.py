"""Decomposition toolbox used by the packing constructions.

Pieces: rooted spanning trees, the leaf split of a tree into a kept subtree
and a deleted forest, cyclic-shift matchings of complete bipartite bundles
(with consecutive shifts pairing into Hamiltonian cycles), parallel subgraphs
of the lexicographic product, and deterministic spanning-tree extraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .core import (ContractError, Edge, EdgeSet, ExtractionError, Graph,
                   InputError, normalize_edge)
from .products import LEXICOGRAPHIC, ProductGraph


@dataclass(frozen=True)
class RootedTree:
    """A spanning tree with a root, parent pointers, and breadth-first order."""

    tree: EdgeSet
    root: int
    parent: tuple[int, ...]   # parent[root] == root
    order: tuple[int, ...]    # breadth-first discovery order, order[0] == root

    def edges_bfs(self) -> Iterator[tuple[int, int]]:
        """Tree edges as (parent, child), in child discovery order."""
        for v in self.order[1:]:
            yield self.parent[v], v


def _bfs(n: int, edges: EdgeSet, root: int) -> tuple[list[int], list[int]]:
    """Parent pointers (-1: unreached) and discovery order of a breadth-first
    search from root that scans neighbors in ascending order."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * n
    parent[root] = root
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
                queue.append(w)
    return parent, order


def root_tree(tree: EdgeSet, root: int = 0) -> RootedTree:
    n = tree.host.n
    if not 0 <= root < n:
        raise ContractError(f"root {root} out of range for n={n}")
    if not tree.is_spanning_tree():
        raise ContractError("input is not a spanning tree of its host")
    parent, order = _bfs(n, tree, root)
    return RootedTree(tree, root, tuple(parent), tuple(order))


@dataclass(frozen=True)
class LeafSplit:
    """A spanning tree cut into a kept subtree and the deleted leaf forest.

    ``subtree_vertices`` has ceil(n/2) members; ``forest_vertices`` holds only
    endpoints of deleted edges.  Each forest component touches the subtree in
    exactly one vertex, its attachment root.
    """

    source: EdgeSet
    subtree: EdgeSet
    subtree_vertices: frozenset[int]
    forest: EdgeSet
    forest_vertices: frozenset[int]


def leaf_split(rt: RootedTree) -> LeafSplit:
    """Delete leaves until ceil(n/2) vertices remain.

    Deterministic: each step removes the current leaf with the smallest
    vertex index.  The root enjoys no protection.
    """
    tree = rt.tree
    n = tree.host.n
    target = (n + 1) // 2
    degree: dict[int, int] = {v: 0 for v in range(n)}
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in tree:
        degree[a] += 1
        degree[b] += 1
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    deleted: list[Edge] = []
    while len(alive) > target:
        leaf = min(v for v in alive if degree[v] <= 1)
        (anchor,) = adj[leaf] if adj[leaf] else (leaf,)
        if adj[leaf]:
            deleted.append(normalize_edge(leaf, anchor))
            adj[anchor].discard(leaf)
            degree[anchor] -= 1
        alive.remove(leaf)
        adj[leaf].clear()
        degree[leaf] = 0
    gone = set(deleted)
    subtree = EdgeSet.of(tree.host, tuple(e for e in tree if e not in gone))
    forest = EdgeSet.of(tree.host, deleted)
    return LeafSplit(tree, subtree, frozenset(alive), forest, forest.vertices())


@dataclass(frozen=True)
class MatchingDecomposition:
    """Cyclic-shift matchings of size-n2 bundles, identity matching last.

    Matching s (1-based) maps fiber index t on the parent side to
    (t + shift) mod n2 on the child side.  Shifts run 1..n2-1 then 0, so
    matchings 2r-1 and 2r use consecutive shifts and their union is a single
    Hamiltonian cycle of the bundle; matching n2 is the identity.
    """

    n2: int
    shifts: tuple[int, ...]

    @property
    def identity_index(self) -> int:
        return self.n2

    @property
    def cycle_count(self) -> int:
        return self.n2 // 2

    def shift_of(self, index: int) -> int:
        if not 1 <= index <= self.n2:
            raise InputError(f"matching index {index} out of range 1..{self.n2}")
        return self.shifts[index - 1]

    def matching_edges(self, product: ProductGraph, parent: int, child: int,
                       index: int) -> tuple[Edge, ...]:
        """The n2 matching edges over the oriented factor edge parent -> child."""
        self._check_bundle(product, parent, child)
        s = self.shift_of(index)
        n2 = self.n2
        return tuple(normalize_edge(product.flat(parent, t),
                                    product.flat(child, (t + s) % n2))
                     for t in range(n2))

    def cycle_edges(self, product: ProductGraph, parent: int, child: int,
                    r: int) -> tuple[Edge, ...]:
        """Perfect cycle r: matchings 2r-1 and 2r of one bundle."""
        if not 1 <= r <= self.cycle_count:
            raise InputError(f"cycle index {r} out of range 1..{self.cycle_count}")
        return (self.matching_edges(product, parent, child, 2 * r - 1)
                + self.matching_edges(product, parent, child, 2 * r))

    def _check_bundle(self, product: ProductGraph, parent: int, child: int) -> None:
        if product.kind != LEXICOGRAPHIC:
            raise InputError("matchings apply to lexicographic bundles only")
        if product.n2 != self.n2:
            raise ContractError(
                f"decomposition built for n2={self.n2}, product has n2={product.n2}")
        if normalize_edge(parent, child) not in product.factor_g.edge_set:
            raise InputError(f"({parent},{child}) is not an edge of the first factor")


def matching_decomposition(n2: int) -> MatchingDecomposition:
    if n2 < 1:
        raise InputError(f"fiber size must be >= 1, got {n2}")
    return MatchingDecomposition(n2, tuple(range(1, n2)) + (0,))


def parallel_subgraph_lex(product: ProductGraph, tree: EdgeSet,
                          j: int) -> EdgeSet:
    """Matching j applied over every bundle of a first-factor spanning tree.

    The result has n2 components that each meet every fiber once.  Bundle
    orientation follows the tree rooted at vertex 0, so subgraphs of the same
    tree with distinct indices are edge-disjoint and together cover all of
    the tree's bundle edges.
    """
    if product.kind != LEXICOGRAPHIC:
        raise InputError("expected a lexicographic product")
    if (tree.host.n != product.factor_g.n
            or tree.host.edges != product.factor_g.edges):
        raise ContractError("tree host does not match the first factor")
    md = matching_decomposition(product.n2)
    if not 1 <= j <= product.n2:
        raise InputError(f"matching index {j} out of range 1..{product.n2}")
    rt = root_tree(tree, 0)
    out: list[Edge] = []
    for parent, child in rt.edges_bfs():
        out.extend(md.matching_edges(product, parent, child, j))
    # matching edges are (min, max) bundle edges: no re-validation
    return EdgeSet(product.graph, tuple(sorted(out)))


def extract_spanning_tree(host: Graph, sub: EdgeSet) -> EdgeSet:
    """Breadth-first spanning tree of a connected spanning subgraph.

    Deterministic: search starts at vertex 0 and scans neighbors in ascending
    order, so the same input always yields the same tree.
    """
    parent, order = _bfs(host.n, sub, 0)
    if len(order) < host.n:
        v = parent.index(-1)
        raise ExtractionError(
            f"vertex {v} is not reachable from vertex 0 in the subgraph")
    return EdgeSet.of(host, [normalize_edge(parent[w], w) for w in order[1:]])
