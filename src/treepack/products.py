"""Cartesian and lexicographic products of two graphs.

A product vertex is the pair (u, v) with u from the first factor and v from
the second; it is flattened to the integer u * n2 + v, so each fiber (fixed u)
occupies a contiguous index block.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import Edge, Graph, InputError, check_edge_count, write_graph

CARTESIAN = "cartesian"
LEXICOGRAPHIC = "lex"


class ProductGraph(NamedTuple):
    """A product graph that remembers its kind and both factor sizes."""

    kind: str
    graph: Graph
    n1: int
    n2: int

    def fiber_copy(self, edges: Iterable[Edge], u: int) -> list[Edge]:
        """Second-factor edges copied into the fiber above vertex u."""
        base = u * self.n2
        return [(base + a, base + b) for a, b in edges]

    def cross_section_copy(self, edges: Iterable[Edge], v: int) -> list[Edge]:
        """First-factor edges copied into the cross-section at second coordinate v."""
        n2 = self.n2
        return [(a * n2 + v, b * n2 + v) for a, b in edges]

    def matching_copy(self, oriented_edges: Iterable[Edge], j: int) -> list[Edge]:
        """Matching j of the bundle over each (parent, child) first-factor edge.

        Parent copy t meets child copy (t + j) mod n2, for t = 0..n2-1 in
        that order.  Matching n2 is the identity (the cartesian rungs);
        matchings 2r-1 and 2r together form one Hamiltonian cycle of the
        lexicographic bundle K_{n2,n2} (Laskar and Auerbach).
        """
        n2 = self.n2
        out = []
        for parent, child in oriented_edges:
            p, c = parent * n2, child * n2
            for t in range(n2):
                a, b = p + t, c + (t + j) % n2
                out.append((a, b) if a < b else (b, a))
        return out


def _build(kind: str, g: Graph, h: Graph, matchings: range) -> ProductGraph:
    """Every fiber copy of h plus the given bundle matchings over every g-edge.

    Empty, too large or disconnected factors are rejected before any
    building; the edge count is n1*m2 + m1*n2*len(matchings).
    """
    if g.n < 1 or h.n < 1:
        raise InputError("both factors must be non-empty")
    check_edge_count(g.n * h.m + g.m * h.n * len(matchings), "product")
    if not g.is_connected():
        raise InputError("first factor must be connected")
    if not h.is_connected():
        raise InputError("second factor must be connected")
    # the copy methods read only the factor sizes, not the graph being built
    shell = ProductGraph(kind, Graph(0, ()), g.n, h.n)
    edges: list[Edge] = []
    for u in range(g.n):
        edges.extend(shell.fiber_copy(h.edges, u))
    for j in matchings:
        edges.extend(shell.matching_copy(g.edges, j))
    # (min, max) pairs of validated factors, unique by construction: no
    # re-validation through Graph.from_edges
    return ProductGraph(kind, Graph(g.n * h.n, tuple(sorted(edges))), g.n, h.n)


def cartesian(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian product: (u,v)~(u',v') iff u=u' and v~v', or v=v' and u~u'."""
    return _build(CARTESIAN, g, h, range(h.n, h.n + 1))   # the identity, n2


def lexicographic(g: Graph, h: Graph) -> ProductGraph:
    """Lexicographic product: (u,v)~(u',v') iff u~u', or u=u' and v~v'."""
    return _build(LEXICOGRAPHIC, g, h, range(1, h.n + 1))   # K_{n2,n2}


def write_product(p: ProductGraph) -> str:
    """Edge-list text with a '# product' header recording kind and fiber sizes."""
    return write_graph(p.graph, [f"product {p.kind} n1={p.n1} n2={p.n2}"])
