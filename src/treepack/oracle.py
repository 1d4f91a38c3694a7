"""Exact spanning-tree packing via matroid union, with optimality certificates.

The packer grows k edge-disjoint forests one level at a time.  Level 1 needs
no search: with one forest an exchange cannot succeed and a failed search
changes nothing, so the first forest is the first-fit spanning tree of the
edge list, built with a union-find.  Each forest is rooted (parent and depth
arrays), so the path joining two vertices is walked up from both ends in
O(path length).  Each root keeps its tree's vertex count and an insert
re-roots the smaller of the two trees it joins, so a vertex is re-rooted
O(log n) times while a forest grows; a path is unique, so the rooting never
changes it.  Inside a later level every unused edge gets at most one
augmentation attempt: a breadth-first search over exchange moves (replace a
forest edge by another edge whose endpoints that forest connects) that either
finds a forest with room or proves none exists.  A label holds only the edge
whose path labelled it: ``owner``, the one map from an edge to its forest,
gives each edge's forest.  An augmenting chain keeps the size of every forest
it passes through and grows only the newest, so the older forests stay
spanning trees and only the newest can receive: the search walks the newest
forest's path first and, when there is none, ends before it labels any older
forest's path.  A failed search merges the endpoints of every edge it labelled
into one clump (Roskind and Tarjan, 1985); a clump is connected inside every
forest and no later augmentation touches its edges, so an edge with both
endpoints in one clump is rejected without a search.  Clumps are flat labels:
clump[v] is v's block id, read in one comparison, and a merge relabels the
smaller block from its member list.  A search labels an edge inside a clump
but does not expand it: its path in every forest stays inside the clump, so it
can neither end the search nor label an edge outside the clump, and the search
keeps its terminal, exchange chain and clumps.  The clumps of the level that
fails are the Tutte/Nash-Williams partition certifying the bound.
``treepack oracle`` runs here.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Any, NamedTuple

from .core import (ConstructionError, Edge, Graph, InputError, TreePacking,
                   _dump, _find, _read_text, _write_out, read_graph)

class TutteCertificate(NamedTuple):
    """A vertex partition certifying an upper bound on the packing number.

    Any packing must spend at least |partition|-1 crossing edges per tree,
    so no packing can exceed floor(crossing_count / (|partition|-1)).
    """

    partition: tuple[tuple[int, ...], ...]
    crossing_count: int
    bound: int


class OracleResult(NamedTuple):
    sigma: int
    packing: TreePacking
    certificate: TutteCertificate


class _ForestFamily:
    """Mutable family of edge-disjoint rooted forests with exchange-path search."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[set[int]]] = []
        self.parent: list[list[int]] = []   # -1 marks a root
        self.depth: list[list[int]] = []
        self.span: list[list[int]] = []     # vertex count of a root's tree
        self.owner: dict[Edge, int] = {}

    def add_forest(self) -> None:
        self.adj.append([set() for _ in range(self.n)])
        self.parent.append([-1] * self.n)
        self.depth.append([0] * self.n)
        self.span.append([1] * self.n)

    def path_in(self, i: int, a: int, b: int) -> list[Edge] | None:
        """Edges of the a-b path in forest i, or None if a,b are separated."""
        parent, depth = self.parent[i], self.depth[i]
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

    def _root(self, i: int, v: int) -> int:
        parent = self.parent[i]
        while parent[v] >= 0:
            v = parent[v]
        return v

    def _hang(self, i: int, v: int, p: int) -> int:
        """Re-root v's tree in forest i at v, below p (if p >= 0); return its size."""
        adj, parent, depth = self.adj[i], self.parent[i], self.depth[i]
        parent[v] = p
        depth[v] = depth[p] + 1 if p >= 0 else 0
        stack = [v]
        count = 0
        while stack:
            x = stack.pop()
            count += 1
            for y in adj[x]:
                if y != parent[x]:
                    parent[y] = x
                    depth[y] = depth[x] + 1
                    stack.append(y)
        return count

    def insert(self, e: Edge, i: int) -> None:
        a, b = e
        ra, rb = self._root(i, a), self._root(i, b)
        if ra == rb:
            raise ConstructionError(f"internal: inserting {e} closes a cycle")
        self.adj[i][a].add(b)
        self.adj[i][b].add(a)
        if self.span[i][ra] > self.span[i][rb]:
            a, b, ra, rb = b, a, rb, ra
        self.span[i][rb] += self._hang(i, a, b)
        self.owner[e] = i

    def remove(self, e: Edge) -> int:
        """Take e out of the forest that holds it and return that forest."""
        i = self.owner.pop(e)
        a, b = e if self.parent[i][e[1]] == e[0] else e[::-1]   # b is the child
        self.adj[i][a].discard(b)
        self.adj[i][b].discard(a)
        span = self.span[i]
        span[b] = self._hang(i, b, -1)
        span[self._root(i, a)] -= span[b]
        return i

    def search(self, e0: Edge, clump: list[int]
               ) -> tuple[Edge | None, dict[Edge, Edge | None]]:
        """Breadth-first exchange search from an unused edge.

        Returns (terminal edge, labels); terminal None means no forest can
        absorb the edge even after exchanges.  label[g] is the edge whose path
        labelled g (None for e0); g's forest is owner[g].  `clump` is the
        level's flat block labels; an edge inside one block is labelled, not
        expanded.
        """
        label: dict[Edge, Edge | None] = {e0: None}
        queue = deque([e0])
        newest = len(self.adj) - 1
        while queue:
            f = queue.popleft()
            a, b = f
            own = self.owner.get(f)
            if own != newest:
                last = self.path_in(newest, a, b)
                if last is None:
                    return f, label
            for i in range(newest + 1):
                if i == own:
                    continue
                for g in last if i == newest else self.path_in(i, a, b):
                    if g not in label:
                        label[g] = f
                        if clump[g[0]] != clump[g[1]]:
                            queue.append(g)
        return None, label

    def augment(self, f: Edge, label: dict[Edge, Edge | None]) -> None:
        """Move the chain a successful search found, ending at f: f joins the
        newest forest, each earlier edge the forest the next edge left."""
        i = len(self.adj) - 1
        while (pred := label[f]) is not None:
            j = self.remove(f)
            self.insert(f, i)
            f, i = pred, j
        self.insert(f, i)

    def snapshot(self, g: Graph) -> TreePacking:
        per: list[list[Edge]] = [[] for _ in self.adj]
        for e, i in self.owner.items():
            per[i].append(e)
        trees = tuple(tuple(sorted(bucket)) for bucket in per)
        return TreePacking(g, trees, method="oracle")


def max_packing(g: Graph) -> OracleResult:
    """Exact maximum packing with a tree-list witness and a partition certificate."""
    if g.n < 2:
        raise InputError(f"packing number needs n >= 2, got n={g.n}")
    if not g.is_connected():
        raise InputError("packing number of a disconnected graph is undefined here")
    family = _ForestFamily(g.n)
    family.add_forest()
    first = list(range(g.n))
    for e in g.edges:
        ra, rb = _find(first, e[0]), _find(first, e[1])
        if ra != rb:
            first[ra] = rb
            family.insert(e, 0)
    while True:
        sigma, witness = len(family.adj), family.snapshot(g)
        family.add_forest()
        clump = list(range(g.n))
        members = [[v] for v in range(g.n)]
        for e in g.edges:
            if e in family.owner or clump[e[0]] == clump[e[1]]:
                continue
            f, label = family.search(e, clump)
            if f is not None:
                family.augment(f, label)
                continue
            for a, b in label:
                ca, cb = clump[a], clump[b]
                if ca != cb:
                    if len(members[ca]) > len(members[cb]):
                        ca, cb = cb, ca
                    for v in members[ca]:
                        clump[v] = cb
                    members[cb] += members[ca]
                    members[ca] = []
        # a forest holds at most n-1 edges: the level failed iff one is short
        if len(family.owner) != len(family.adj) * (g.n - 1):
            break
    return OracleResult(sigma, witness, _terminal_certificate(g, members, clump, sigma))


def _terminal_certificate(g: Graph, members: list[list[int]], clump: list[int],
                          sigma: int) -> TutteCertificate:
    """Certificate from the clumps of the failed level.

    Inside a clump each forest of the failed level restricts to a spanning
    tree, so crossing edges are too few for one more tree.
    """
    partition = tuple(sorted(tuple(sorted(b)) for b in members if b))
    p = len(partition)
    if p < 2:
        raise ConstructionError("internal: degenerate certificate partition")
    crossing = sum(1 for a, b in g.edges if clump[a] != clump[b])
    bound = crossing // (p - 1)
    if bound != sigma:
        raise ConstructionError(
            f"internal: certificate bound {bound} disagrees with sigma {sigma}")
    return TutteCertificate(partition, crossing, bound)


def cmd_oracle(args: SimpleNamespace) -> tuple[str, Any, dict, bool]:
    from .verify import _packing_record, verify_packing
    g = read_graph(_read_text(args.file))
    result = max_packing(g)
    verified = verify_packing(g, result.packing).overall
    record = {
        "sigma": result.sigma,
        "certificate": {
            "partition": result.certificate.partition,
            "crossing_count": result.certificate.crossing_count,
            "bound": result.certificate.bound,
        },
        "packing": _packing_record(args.file, result.packing, verified),
    }
    if args.out:   # the record goes to the file; the summary is still printed
        _write_out(args.out, _dump(record) + "\n")
    cert = result.certificate
    text = (f"sigma = {result.sigma}\n"
            f"certificate: {len(cert.partition)} blocks, "
            f"{cert.crossing_count} crossing edges, bound {cert.bound}\n"
            f"packing: {len(result.packing.trees)} trees, "
            f"verified={str(verified).lower()}\n")
    return text, record, {"sigma": result.sigma, "bound": cert.bound}, verified
