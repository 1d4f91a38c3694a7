"""Independent references the tests check treepack against, and the tests'
random graphs.

Each reference is slow or small-scale on purpose: a connected-components
search, a one-cycle test, a leaf split that scans for each leaf, an exchange
search that walks every forest path in full, an exhaustive partition search,
and the graphs of the catalogued closed forms with a check of one row against
the exact oracle.  Every random graph a test draws comes from ``random_tree``
or ``random_connected`` on a seeded ``random.Random``, or from the Hypothesis
strategy ``connected_graphs(min_n, max_n)``.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable

from hypothesis import strategies as st

from treepack.catalogue import (complete, complete_multipartite, cycle,
                                hypercube, proposition_value)
from treepack.core import ConstructionError, Edge, Graph, InputError, SizeError
from treepack.oracle import TutteCertificate, _ForestFamily, max_packing
from treepack.products import cartesian
from treepack.verify import Check, VerificationReport


def as_tree(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """A tree as treepack holds it: the sorted tuple of its (min, max) edges."""
    return tuple(sorted((a, b) if a < b else (b, a) for a, b in edges))


def random_tree(rng: random.Random, n: int) -> tuple[Edge, ...]:
    """A random spanning tree of 0..n-1: each v >= 1 joins a random u < v."""
    return tuple(sorted((rng.randrange(v), v) for v in range(1, n)))


def random_connected(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a random subset of the remaining pairs."""
    edges = set(random_tree(rng, n))
    others = [(a, b) for a in range(n) for b in range(a + 1, n)
              if (a, b) not in edges]
    rng.shuffle(others)
    edges.update(others[:rng.randint(0, len(others))])
    return Graph.from_edges(n, sorted(edges))


@st.composite
def connected_graphs(draw, min_n: int, max_n: int) -> Graph:
    """A random spanning tree on min_n..max_n vertices plus random edges."""
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph.from_edges(n, sorted(set(tree) | set(extra)))


def components(n: int, edges: Iterable[Edge]) -> tuple[tuple[int, ...], ...]:
    """Connected components of (0..n-1, edges), singletons included.

    Blocks are sorted internally and ordered by smallest member.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    block.append(w)
                    queue.append(w)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def is_one_cycle(edges: list[Edge], length: int) -> bool:
    """The edges form a single cycle through ``length`` vertices."""
    verts = {v for e in edges for v in e}
    if len(edges) != length or len(verts) != length:
        return False
    deg: dict[int, int] = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    packed = {v: i for i, v in enumerate(sorted(verts))}
    comp = components(len(packed), [(packed[a], packed[b]) for a, b in edges])
    return all(d == 2 for d in deg.values()) and len(comp) == 1


def leaf_split_by_scan(n: int, tree: Iterable[Edge]
                       ) -> tuple[tuple[Edge, ...], frozenset[int], tuple[Edge, ...]]:
    """(subtree, subtree vertices, forest) of ``cartesian.leaf_split``'s rule,
    each step scanning every alive vertex for the smallest leaf."""
    tree = as_tree(tree)
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in tree:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    deleted = []
    while len(alive) > (n + 1) // 2:
        leaf = min(v for v in alive if len(adj[v]) == 1)
        (anchor,) = adj[leaf]
        deleted.append((min(leaf, anchor), max(leaf, anchor)))
        adj[anchor].discard(leaf)
        alive.remove(leaf)
    subtree = tuple(e for e in tree if e not in deleted)
    return subtree, frozenset(alive), tuple(sorted(deleted))


def path_in(family: _ForestFamily, i: int, a: int, b: int) -> list[Edge] | None:
    """Edges of the a-b path in forest i, or None if a,b are separated:
    a's side going up, then b's side from the meeting vertex down."""
    parent, depth = family.parent[i], family.depth[i]
    up: list[Edge] = []
    down: list[Edge] = []
    while depth[a] > depth[b]:
        p = parent[a]
        up.append((a, p) if a < p else (p, a))
        a = p
    while depth[b] > depth[a]:
        p = parent[b]
        down.append((b, p) if b < p else (p, b))
        b = p
    while a != b:
        p, q = parent[a], parent[b]
        if p < 0:
            return None
        up.append((a, p) if a < p else (p, a))
        down.append((b, q) if b < q else (q, b))
        a, b = p, q
    down.reverse()
    return up + down


def reference_search(family: _ForestFamily, e0: Edge, clump: list[int]
                     ) -> tuple[Edge | None, dict[Edge, Edge | None]]:
    """``_ForestFamily.search`` that walks each forest's whole path at every
    dequeued edge and skips the edges it has already labelled."""
    label: dict[Edge, Edge | None] = {e0: None}
    queue = deque([e0])
    newest = len(family.adj) - 1
    while queue:
        f = queue.popleft()
        a, b = f
        own = family.owner.get(f)
        if own != newest and path_in(family, newest, a, b) is None:
            return f, label
        for i in range(newest + 1):
            if i == own:
                continue
            for g in path_in(family, i, a, b):
                if g not in label:
                    label[g] = f
                    if clump[g[0]] != clump[g[1]]:
                        queue.append(g)
    return None, label


def tutte_bruteforce(g: Graph) -> TutteCertificate:
    """Minimize floor(crossing / (blocks-1)) over every vertex partition.

    Exhaustive (Bell-number many partitions), so n is capped at 12.  Ties go
    to the first partition met in restricted-growth-string order.
    """
    n = g.n
    if n > 12:
        raise SizeError(f"exhaustive partition search capped at n=12, got n={n}")
    if n < 2:
        raise InputError(f"partition bound needs n >= 2, got n={n}")
    edges = g.edges
    best_bound = None
    best_key = None
    a = [0] * n
    b = [0] * n
    while True:
        parts = max(a) + 1
        if parts >= 2:
            crossing = 0
            for u, v in edges:
                if a[u] != a[v]:
                    crossing += 1
            bound = crossing // (parts - 1)
            if best_bound is None or bound < best_bound:
                best_bound = bound
                best_key = (tuple(a), crossing, parts)
        j = n - 1
        while j >= 1 and a[j] > b[j]:
            j -= 1
        if j < 1:
            break
        a[j] += 1
        prev = max(b[j], a[j])
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = prev
    if best_key is None:
        raise ConstructionError("internal: no partition with two blocks")
    labels, crossing, parts = best_key
    grouped: list[list[int]] = [[] for _ in range(parts)]
    for v, lab in enumerate(labels):
        grouped[lab].append(v)
    partition = tuple(tuple(sorted(blk)) for blk in grouped)
    return TutteCertificate(partition, crossing, best_bound)


def proposition_graph(row: int, params: tuple[int, ...]) -> Graph:
    """The graph whose packing number closed form ``row`` gives."""
    if row == 1:
        n, m = params
        return cartesian(complete(n), cycle(m)).graph
    if row == 2:
        n, m = params
        return cartesian(complete(n), complete(m)).graph
    if row == 3:
        (n,) = params
        return hypercube(n)
    if row == 4:
        n, m, r = params
        return cartesian(complete_multipartite(n, m), complete(r)).graph
    if row == 5:
        n, m, r = params
        return cartesian(complete_multipartite(n, m), cycle(r)).graph
    if row == 6:
        n, m, r, t = params
        return cartesian(complete_multipartite(n, m),
                         complete_multipartite(r, t)).graph
    if row == 7:
        n, m = params
        return complete_multipartite(n, m)
    raise ValueError(f"row must be 1..7, got {row}")


def verify_proposition_row(row: int, params: tuple[int, ...]) -> VerificationReport:
    """Check one catalogued closed form against the exact oracle."""
    value = proposition_value(row, params)
    g = proposition_graph(row, params)
    if g.n > 64:
        raise SizeError(f"row {row}{params} has {g.n} > 64 vertices")
    result = max_packing(g)
    ok = result.sigma == value
    checks = (
        Check(f"row {row} params {params}: oracle sigma equals closed form {value}",
              ok, None if ok else f"oracle found {result.sigma}"),
    )
    return VerificationReport(f"closed form row {row} {params}", checks)
