"""Cartesian and lexicographic products of two graphs.

A product vertex is the pair (u, v) with u from the first factor and v from
the second; it is flattened to the integer u * n2 + v, so each fiber (fixed u)
occupies a contiguous index block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (Edge, Graph, InputError, ParseError, SizeError,
                   UnsupportedOperationError, normalize_edge, read_graph,
                   sort_edges, write_graph)

CARTESIAN = "cartesian"
LEXICOGRAPHIC = "lex"

# Largest product edge count a constructor builds.  The benchmark's largest
# product, K40 x C40, has 33k edges.
MAX_PRODUCT_EDGES = 2_000_000


@dataclass(frozen=True)
class Bundle:
    """All n2*n2 edges of a lexicographic product that sit over one factor edge.

    ``left`` and ``right`` are the flat vertex blocks of the two fibers, in
    fiber order; ``edges`` joins every left vertex to every right vertex.
    """

    g_edge: Edge
    left: tuple[int, ...]
    right: tuple[int, ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class ProductGraph:
    """A product graph that remembers its kind and both factors."""

    kind: str
    graph: Graph
    factor_g: Graph
    factor_h: Graph

    @property
    def n1(self) -> int:
        return self.factor_g.n

    @property
    def n2(self) -> int:
        return self.factor_h.n

    def flat(self, u: int, v: int) -> int:
        return u * self.n2 + v

    def fiber(self, u: int) -> tuple[int, ...]:
        """Flat indices of the copy of the second factor above vertex u."""
        base = u * self.n2
        return tuple(range(base, base + self.n2))

    def fiber_copy(self, edges: Iterable[Edge], u: int) -> list[Edge]:
        """Second-factor edges copied into the fiber above vertex u."""
        base = u * self.n2
        return [(base + a, base + b) for a, b in edges]

    def cross_section(self, v: int) -> tuple[int, ...]:
        """Flat indices of the copy of the first factor at second coordinate v."""
        return tuple(u * self.n2 + v for u in range(self.n1))

    def cross_section_copy(self, edges: Iterable[Edge], v: int) -> list[Edge]:
        """First-factor edges copied into the cross-section at second coordinate v."""
        n2 = self.n2
        return [(a * n2 + v, b * n2 + v) for a, b in edges]

    def rung_edges(self, g_edge: Edge) -> tuple[Edge, ...]:
        """The n2 parallel cross edges of a cartesian product over one factor edge."""
        if self.kind != CARTESIAN:
            raise UnsupportedOperationError(
                f"rung_edges is defined for cartesian products, not {self.kind}")
        a, b = normalize_edge(*g_edge)
        if (a, b) not in self.factor_g.edge_set:
            raise InputError(f"({a},{b}) is not an edge of the first factor")
        return tuple((self.flat(a, v), self.flat(b, v)) for v in range(self.n2))

    def bundle(self, g_edge: Edge) -> Bundle:
        """The complete bipartite bundle of a lexicographic product over one factor edge."""
        if self.kind != LEXICOGRAPHIC:
            raise UnsupportedOperationError(
                f"bundle is defined for lexicographic products, not {self.kind}")
        a, b = normalize_edge(*g_edge)
        if (a, b) not in self.factor_g.edge_set:
            raise InputError(f"({a},{b}) is not an edge of the first factor")
        left = self.fiber(a)
        right = self.fiber(b)
        edges = tuple((x, y) for x in left for y in right)
        return Bundle((a, b), left, right, edges)


def _check_factors(g: Graph, h: Graph, cross_per_edge: int) -> None:
    """Reject empty, too large or disconnected factors before any building.

    Every first-factor edge carries ``cross_per_edge`` product edges.
    """
    if g.n < 1 or h.n < 1:
        raise InputError("both factors must be non-empty")
    m = g.n * h.m + g.m * cross_per_edge
    if m > MAX_PRODUCT_EDGES:
        raise SizeError(
            f"product would have {m} edges, more than {MAX_PRODUCT_EDGES}")
    if not g.is_connected():
        raise InputError("first factor must be connected")
    if not h.is_connected():
        raise InputError("second factor must be connected")


def cartesian(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian product: (u,v)~(u',v') iff u=u' and v~v', or v=v' and u~u'."""
    _check_factors(g, h, h.n)
    n2 = h.n
    edges: list[Edge] = []
    for u in range(g.n):
        base = u * n2
        edges.extend((base + a, base + b) for a, b in h.edges)
    for a, b in g.edges:
        edges.extend((a * n2 + v, b * n2 + v) for v in range(n2))
    # (min, max) pairs of validated factors, unique by construction: no
    # re-validation through Graph.from_edges
    return ProductGraph(CARTESIAN, Graph(g.n * h.n, tuple(sorted(edges))), g, h)


def lexicographic(g: Graph, h: Graph) -> ProductGraph:
    """Lexicographic product: (u,v)~(u',v') iff u~u', or u=u' and v~v'."""
    _check_factors(g, h, h.n * h.n)
    n2 = h.n
    edges: list[Edge] = []
    for u in range(g.n):
        base = u * n2
        edges.extend((base + a, base + b) for a, b in h.edges)
    for a, b in g.edges:
        edges.extend((a * n2 + x, b * n2 + y) for x in range(n2) for y in range(n2))
    # unique (min, max) pairs, as in cartesian()
    return ProductGraph(LEXICOGRAPHIC, Graph(g.n * h.n, tuple(sorted(edges))), g, h)


def write_product(p: ProductGraph, header_comments: Sequence[str] = ()) -> str:
    """Edge-list text with a '# product' header recording kind and fiber sizes."""
    head = [f"product {p.kind} n1={p.n1} n2={p.n2}"]
    head.extend(header_comments)
    return write_graph(p.graph, head)


def read_product(text: str) -> ProductGraph:
    """Parse product edge-list text, reconstructing both factors.

    The first factor is read off the fiber-0 cross edges and the second off
    fiber 0 itself; the product is then rebuilt from the factors and must
    reproduce the stored edge set exactly.
    """
    kind = None
    n1 = n2 = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith("#"):
            continue
        parts = line[1:].split()
        if len(parts) >= 1 and parts[0] == "product":
            if len(parts) != 4:
                raise ParseError(
                    f"line {lineno}: expected '# product <kind> n1=<n> n2=<n>'")
            kind = parts[1]
            if kind not in (CARTESIAN, LEXICOGRAPHIC):
                raise ParseError(f"line {lineno}: unknown product kind {kind!r}")
            try:
                if not parts[2].startswith("n1=") or not parts[3].startswith("n2="):
                    raise ValueError
                n1 = int(parts[2][3:])
                n2 = int(parts[3][3:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad n1=/n2= fields") from None
            break
    if kind is None or n1 is None or n2 is None:
        raise ParseError("missing '# product <kind> n1=<n> n2=<n>' header")
    graph = read_graph(text)
    if graph.n != n1 * n2:
        raise ParseError(f"header promises {n1}*{n2} vertices, graph has {graph.n}")
    if n1 < 1 or n2 < 1:
        raise ParseError("factor sizes must be positive")

    h_edges = [(a, b) for a, b in graph.edges if a < n2 and b < n2]
    h = Graph.from_edges(n2, h_edges)
    g_edges = {(a // n2, b // n2) for a, b in graph.edges if a // n2 != b // n2}
    g = Graph.from_edges(n1, sort_edges(g_edges))

    try:
        rebuilt = cartesian(g, h) if kind == CARTESIAN else lexicographic(g, h)
    except InputError as exc:
        raise ParseError(f"declared product: {exc}") from None
    if rebuilt.graph.edges != graph.edges:
        raise ParseError("edge list is not the declared product of its factors")
    return rebuilt
