"""Decomposition toolbox used by the packing constructions.

Pieces: spanning trees rooted as (parent, child) edges, the leaf split of a
tree into a kept subtree and a deleted forest, and deterministic
spanning-tree extraction.  The bundle matchings live on
``ProductGraph.matching_copy``.  Nothing here checks its input: the
constructions pass only factor trees that ``check_packing`` has passed, and
``verified_packing`` checks what they build.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import Edge, bfs_tree, normalize_edge


def root_tree(n: int, tree: tuple[Edge, ...]) -> tuple[Edge, ...]:
    """A spanning tree of the vertices 0..n-1 rooted at vertex 0: its edges
    as (parent, child), in breadth-first order of the child."""
    parent, order = bfs_tree(n, tree)
    return tuple((parent[v], v) for v in order[1:])


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
    deleted: list[Edge] = []
    # the loop runs while a tree of >= 2 vertices is alive, so each of its
    # leaves has exactly one alive neighbor
    while len(alive) > target:
        leaf = min(v for v in alive if len(adj[v]) == 1)
        (anchor,) = adj[leaf]
        deleted.append(normalize_edge(leaf, anchor))
        adj[anchor].discard(leaf)
        alive.remove(leaf)
    gone = set(deleted)
    subtree = tuple(e for e in tree if e not in gone)
    return LeafSplit(subtree, frozenset(alive), tuple(sorted(deleted)))


def extract_spanning_tree(n: int, edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """Breadth-first spanning tree of a connected subgraph on 0..n-1.

    Deterministic: search starts at vertex 0 and scans neighbors in ascending
    order, so the same edges in any order always yield the same tree.  A
    disconnected subgraph yields the tree of vertex 0's component only.
    """
    parent, order = bfs_tree(n, edges)
    return tuple(sorted(normalize_edge(parent[w], w) for w in order[1:]))
