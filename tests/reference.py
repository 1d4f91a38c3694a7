"""Independent references the tests check treepack against, and the tests'
random graphs.

Each reference is slow or small-scale on purpose: a connected-components
search, a one-cycle test, a leaf split that scans for each leaf, an exchange
search that walks every forest path in full, a packing's checks that scan
every tree against the host and union every tree, an exhaustive partition
search, and the graphs of the catalogued closed forms with a check of one row against
the exact oracle.  Every random graph a test draws comes from ``random_tree``
or ``random_connected`` on a seeded ``random.Random``, or from one of three
Hypothesis strategies: ``connected_graphs(min_n, max_n)``; ``packings(min_n,
max_n)``, a host with edge-disjoint spanning trees of it, two or more in most
draws from four vertices up; and ``mutated_packings(min_n, max_n)``, such a
packing after 0-3 of the named ``MUTATIONS`` that ``mutate`` applies.  No
draw runs the oracle.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Iterator

from hypothesis import strategies as st

from treepack.catalogue import (complete, complete_multipartite, cycle,
                                hypercube, proposition_value)
from treepack.core import ConstructionError, Edge, Graph, InputError, SizeError
from treepack.oracle import TutteCertificate, _ForestFamily, max_packing
from treepack.products import cartesian
from treepack.verify import Check, VerificationReport, _tree_checks


def as_tree(edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """A tree as treepack holds it: the sorted tuple of its (min, max) edges."""
    return tuple(sorted((a, b) if a < b else (b, a) for a, b in edges))


def graph(n: int, pairs: Iterable[Edge]) -> Graph:
    """The graph on 0..n-1 with these pairs, held as treepack holds edges:
    (min, max), sorted, and asserted in range, loop-free and unique."""
    edges = as_tree(pairs)
    assert all(0 <= a < b < n for a, b in edges), edges
    assert len(set(edges)) == len(edges), edges
    return Graph(n, edges)


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
    return graph(n, edges)


@st.composite
def connected_graphs(draw, min_n: int, max_n: int) -> Graph:
    """A random spanning tree on min_n..max_n vertices plus random edges."""
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return graph(n, set(tree) | set(extra))


@st.composite
def packings(draw, min_n: int, max_n: int) -> tuple[Graph, tuple]:
    """A host on min_n..max_n vertices and k edge-disjoint spanning trees of it,
    2 <= k <= n // 2 where n >= 4: Kruskal passes over one shuffle of K_n's
    pairs, each over the pairs no earlier tree took, until one fails to span.
    The host adds a prefix of the unused pairs.  K1 gets 0-3 empty trees."""
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return graph(1, ()), ((),) * draw(st.integers(0, 3))
    k = draw(st.integers(min(2, n // 2), max(1, n // 2)))
    pairs = draw(st.permutations([(a, b) for a in range(n) for b in range(a + 1, n)]))
    trees = []
    while len(trees) < k:
        tree = []
        for a, b in pairs:
            if not any(a in c and b in c for c in components(n, tree)):
                tree.append((a, b))
        if len(tree) < n - 1:
            break
        trees.append(tuple(sorted(tree)))
        pairs = [e for e in pairs if e not in tree]
    extra = pairs[:draw(st.integers(0, len(pairs)))]
    return graph(n, [e for t in trees for e in t] + extra), tuple(trees)


# The check each named mutation fails alone on a valid packing ("{}": its tree)
MUTATIONS = {"drop an edge": "tree {}: edge count is n-1",
             "swap in a non-host pair": "tree {}: edges belong to host",
             "add an out-of-range pair": "tree {}: vertices in range 0..n-1",
             "repeat an edge": "tree {}: acyclic", "add a chord": "tree {}: acyclic",
             "copy an edge into another tree": "trees pairwise edge-disjoint",
             "a tree of arbitrary pairs": None}


def mutate(host: Graph, trees: tuple, mutation: str, rng: random.Random
           ) -> tuple[tuple, int | None]:
    """``trees``, sorted as treepack holds them, after the named mutation of a
    random tree, and its index; None, and ``trees`` unchanged, if it cannot."""
    n, edges = host.n, set(host.edges)
    new = [list(t) for t in trees] or [[]]   # K1 with no trees: one to add
    t = new[i := rng.randrange(len(new))]
    adds = {"repeat an edge": t, "add a chord": sorted(edges.difference(t)),
            "add an out-of-range pair": [(0, n), (-1, 0)]}
    if mutation == "a tree of arbitrary pairs":   # any pairs in -1..n, repeats too
        t[:] = rng.choices([(a, b) for a in range(-1, n + 1)
                            for b in range(a + 1, n + 1)], k=rng.randint(0, n + 1))
    elif mutation == "drop an edge" and t:
        t.pop(rng.randrange(len(t)))
    elif adds.get(mutation):
        t.append(rng.choice(adds[mutation]))
    elif mutation == "swap in a non-host pair":   # K_n: a loop stands in
        j = rng.choice(range(len(t)) or [0])   # in place of an edge, or first
        t[j:j + 1] = [rng.choice([(a, b) for a in range(n) for b in range(a + 1, n)
                                  if (a, b) not in edges] or [(0, 0)])]
    elif mutation == "copy an edge into another tree" and t and len(new) > 1:
        e, u = rng.choice(t), rng.choice([v for v in new if v is not t])
        on_cycle = [j for j in range(len(u)) if edges.issuperset(u + [e]) and len(
            components(n, u[:j] + u[j + 1:] + [e])) == 1]   # so a tree stays a tree
        j = rng.choice(on_cycle or range(len(u)) or [0])
        u[j:j + 1] = [e]
    else:
        return trees, None
    return tuple(tuple(sorted(t)) for t in new), i


@st.composite
def mutated_packings(draw, min_n: int, max_n: int) -> tuple[Graph, tuple]:
    """A drawn packing after 0-3 named mutations."""
    host, trees = draw(packings(min_n, max_n))
    for mutation in draw(st.lists(st.sampled_from(list(MUTATIONS)), max_size=3)):
        trees = mutate(host, trees, mutation, draw(st.randoms()))[0]
    return host, trees


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
                       ) -> tuple[tuple[Edge, ...], tuple[int, ...], tuple[Edge, ...]]:
    """(subtree, kept, forest) of ``cartesian.leaf_split``'s rule, kept
    ascending, each step scanning every alive vertex for the smallest leaf."""
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
    return subtree, tuple(sorted(alive)), tuple(sorted(deleted))


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


def reference_checks(host: Graph, trees: tuple[tuple[Edge, ...], ...]
                     ) -> Iterator[Check]:
    """``verify._checks`` that tests every tree against one frozenset of the
    host edges and then unions the whole packing for the disjointness check."""
    host_edges = frozenset(host.edges)
    for idx, t in enumerate(trees):
        stray = ([] if host_edges.issuperset(t)
                 else [e for e in t if e not in host_edges])
        yield from _tree_checks(host.n, stray, t, f"tree {idx}")
    clash = None
    if len(set().union(*trees)) != sum(map(len, trees)):
        seen: dict[Edge, int] = {}
        # name the first edge two trees share; a repeat inside one tree is
        # its acyclic check's failure
        for idx, t in enumerate(trees):
            for e in t:
                if seen.setdefault(e, idx) != idx:
                    clash = (e, seen[e], idx)
                    break
            if clash:
                break
    yield Check(
        "trees pairwise edge-disjoint", clash is None,
        f"edge {clash[0]} in trees {clash[1]} and {clash[2]}" if clash else None)
    if host.n == 1:
        one = len(trees) <= 1
        yield Check("a one-vertex host has one spanning tree (the empty one)",
                    one, None if one else f"{len(trees)} trees")


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
