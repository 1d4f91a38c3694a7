"""Decomposition toolbox used by the packing constructions.

Pieces: rooted spanning trees, the leaf split of a tree into a kept subtree
and a deleted forest, and deterministic spanning-tree extraction.  The
bundle matchings live on ``ProductGraph.matching_copy``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, NamedTuple

from .core import (ContractError, Edge, EdgeSet, ExtractionError, Graph,
                   normalize_edge)


class RootedTree(NamedTuple):
    """A spanning tree rooted at vertex 0: parent pointers and breadth-first order."""

    parent: tuple[int, ...]   # parent[0] == 0
    order: tuple[int, ...]    # breadth-first discovery order, order[0] == 0

    def edges_bfs(self) -> Iterator[tuple[int, int]]:
        """Tree edges as (parent, child), in child discovery order."""
        for v in self.order[1:]:
            yield self.parent[v], v


def _bfs(n: int, edges: EdgeSet) -> tuple[list[int], list[int]]:
    """Parent pointers (-1: unreached) and discovery order of a breadth-first
    search from vertex 0 that scans neighbors in ascending order."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
                queue.append(w)
    return parent, order


def root_tree(tree: EdgeSet) -> RootedTree:
    n = tree.host.n
    if not tree.is_spanning_tree():
        raise ContractError("input is not a spanning tree of its host")
    parent, order = _bfs(n, tree)
    return RootedTree(tuple(parent), tuple(order))


class LeafSplit(NamedTuple):
    """A spanning tree cut into a kept subtree and the deleted leaf forest.

    ``subtree_vertices`` has ceil(n/2) members.  Each forest component
    touches the subtree in exactly one vertex, its attachment root.
    """

    subtree: EdgeSet
    subtree_vertices: frozenset[int]
    forest: EdgeSet


def leaf_split(tree: EdgeSet) -> LeafSplit:
    """Delete leaves until ceil(n/2) vertices remain.

    Deterministic: each step removes the current leaf with the smallest
    vertex index.
    """
    if not tree.is_spanning_tree():
        raise ContractError("input is not a spanning tree of its host")
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
    return LeafSplit(subtree, frozenset(alive), forest)


def extract_spanning_tree(host: Graph, sub: EdgeSet) -> EdgeSet:
    """Breadth-first spanning tree of a connected spanning subgraph.

    Deterministic: search starts at vertex 0 and scans neighbors in ascending
    order, so the same input always yields the same tree.
    """
    parent, order = _bfs(host.n, sub)
    if len(order) < host.n:
        v = parent.index(-1)
        raise ExtractionError(
            f"vertex {v} is not reachable from vertex 0 in the subgraph")
    return EdgeSet.of(host, [normalize_edge(parent[w], w) for w in order[1:]])
