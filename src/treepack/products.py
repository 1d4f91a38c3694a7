"""Cartesian and lexicographic products of two graphs.

A product vertex is the pair (u, v) with u from the first factor and v from
the second; it is flattened to the integer u * n2 + v, so each fiber (fixed u)
occupies a contiguous index block.  A product's edges are built in ascending
order from the adjacency rule: (u, v) meets (u, v') for each H-neighbour v'
of v, and (w, v) (cartesian) or every (w, t) (lex) for each G-neighbour w of
u.  ``treepack product`` and ``treepack pack`` run here; ``pack`` imports the
oracle and its construction only when it runs them.
"""

from __future__ import annotations

import os
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Any, Iterable, NamedTuple, Sequence

from .core import (Edge, Graph, InputError, TreePacking, _dump, _graph_record,
                   _read_text, _write_out, check_edge_count, read_graph,
                   write_graph)

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

    def matching_copy(self, oriented_edges: Iterable[Edge], j: int) -> list[Edge]:
        """Matching j of the bundle over each (parent, child) first-factor edge.

        Parent copy t meets child copy (t + j) mod n2, for t = 0..n2-1 in
        that order.  Matching n2 is the identity (the cartesian rungs): its
        slice [v::n2] is the cross section at second coordinate v;
        matchings 2r-1 and 2r together form one Hamiltonian cycle of the
        lexicographic bundle K_{n2,n2} (Laskar and Auerbach).
        """
        n2, s = self.n2, j % self.n2
        out: list[Edge] = []
        for parent, child in oriented_edges:
            p, c = parent * n2, child * n2
            # disjoint fibers: one comparison orients all n2 pairs
            ps = range(p, p + n2)
            cs = chain(range(c + s, c + n2), range(c, c + s))
            out.extend(zip(ps, cs) if p < c else zip(cs, ps))
        return out


def _check_product(kind: str, g: Graph, h: Graph) -> None:
    """Raise unless g and h make a product of this kind.  The one check of
    that, in this order: InputError for an empty factor, SizeError if the
    product's n1*m2 + m1*n2 (cartesian) or n1*m2 + m1*n2*n2 (lex) edges are
    more than MAX_EDGES, InputError for a disconnected first, then second,
    factor."""
    if g.n < 1 or h.n < 1:
        raise InputError("both factors must be non-empty")
    check_edge_count(g.n * h.m + g.m * h.n * (1 if kind == CARTESIAN else h.n),
                     "product")
    if not g.is_connected():
        raise InputError("first factor must be connected")
    if not h.is_connected():
        raise InputError("second factor must be connected")


def _build(kind: str, g: Graph, h: Graph) -> ProductGraph:
    """The product's edges in ascending order, with no sort: vertex x = u*n2 + v
    in turn meets its fiber's u*n2 + v' for each H-neighbour v' > v, then,
    for each G-neighbour w > u ascending, w*n2 + v (cartesian) or all of
    fiber w (lex).  Each pair is (min, max) and unique by construction, so
    no second pass checks them, as with the catalogue's families."""
    _check_product(kind, g, h)
    n2 = h.n
    up_g, up_h = [[] for _ in range(g.n)], [[] for _ in range(n2)]
    for up, f in ((up_g, g), (up_h, h)):   # neighbours above, ascending
        for a, b in f.edges:
            up[a].append(b)
    edges: list[Edge] = []
    for u, ws in enumerate(up_g):
        base, fibers = u * n2, [range(w * n2, w * n2 + n2) for w in ws]
        # row v: x's partners above fiber u; zip() of no fibers gives no row
        rows = (repeat([*chain(*fibers)]) if kind == LEXICOGRAPHIC
                else zip(*fibers) if fibers else repeat(()))
        for x, vs, ys in zip(range(base, base + n2), up_h, rows):
            edges.extend(zip(repeat(x), map(base.__add__, vs)))
            edges.extend(zip(repeat(x), ys))
    return ProductGraph(kind, Graph(g.n * n2, tuple(edges)), g.n, n2)


def cartesian(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian product: (u,v)~(u',v') iff u=u' and v~v', or v=v' and u~u'."""
    return _build(CARTESIAN, g, h)


def lexicographic(g: Graph, h: Graph) -> ProductGraph:
    """Lexicographic product: (u,v)~(u',v') iff u~u', or u=u' and v~v'."""
    return _build(LEXICOGRAPHIC, g, h)


def write_product(p: ProductGraph) -> str:
    """Edge-list text with a '# product' header recording kind and fiber sizes."""
    return write_graph(p.graph, [f"product {p.kind} n1={p.n1} n2={p.n2}"])


def cmd_product(args: SimpleNamespace) -> tuple[str | None, Any, dict, None]:
    g = read_graph(_read_text(args.fileG))
    h = read_graph(_read_text(args.fileH))
    p = cartesian(g, h) if args.kind == CARTESIAN else lexicographic(g, h)
    text = write_product(p)
    if args.out:
        _write_out(args.out, text)
    record = {"kind": p.kind, "n1": p.n1, "n2": p.n2, **_graph_record(p.graph)}
    return (None if args.out else text, record,
            {"n": p.graph.n, "m": p.graph.m, "out": args.out}, None)


def _pack(kind: str, g: Graph, h: Graph, paths: Sequence[str] = ()) -> TreePacking:
    """The verified construction for this product kind from the packing files
    given for G, then H; a factor without one gets the oracle's packing, or
    the single empty tree of a one-vertex graph.  Imports only what it runs."""
    from .verify import _load_packing, verified_packing
    packings = [_load_packing(path_, f) for path_, f in zip(paths, (g, h))]
    if kind == CARTESIAN:
        from .cartesian import pack_cartesian as construct
    else:
        from .lex import _check_sizes, pack_lex as construct
    for f in (g, h)[len(packings):]:
        if f.n == 1:
            packings.append(verified_packing(f, [[]], "user", 1))
            continue
        if kind == LEXICOGRAPHIC:
            _check_sizes(g, h)   # lex's own refusal comes before the oracle's work
        from .oracle import max_packing
        packings.append(max_packing(f).packing)
    return construct(g, h, *packings)


def cmd_pack(args: SimpleNamespace) -> tuple[str | None, Any, dict, bool]:
    from .verify import _packing_record
    g = read_graph(_read_text(args.fileG))
    h = read_graph(_read_text(args.fileH))
    _check_product(args.kind, g, h)   # refuse a non-product before any oracle runs
    paths = args.factor_packing or []
    if len(paths) > 2:
        raise InputError("--factor-packing may be given at most twice (G then H)")
    packed = _pack(args.kind, g, h, paths)
    count = len(packed.trees)
    graph_ref = os.path.basename(args.out) + ".graph" if args.out else "-"
    record = _packing_record(graph_ref, packed)
    if args.out:
        product = ProductGraph(args.kind, packed.host, g.n, h.n)
        _write_out(args.out + ".graph", write_product(product))
        _write_out(args.out, _dump(record) + "\n")
    text = f"packed {args.kind} product: {count} trees (bound {count}), verified=true\n"
    return (None if args.out else text, record,
            {"trees": count, "bound": count, "out": args.out}, True)
