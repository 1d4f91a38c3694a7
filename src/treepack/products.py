"""Cartesian and lexicographic products of two graphs.

A product vertex is the pair (u, v) with u from the first factor and v from
the second; it is flattened to the integer u * n2 + v, so each fiber (fixed u)
occupies a contiguous index block.  ``treepack product`` and ``treepack pack``
run here; ``pack`` imports the oracle and its construction only when it runs
them.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from .core import (Edge, Graph, InputError, TreePacking, _dump,
                   _emit_run_record, _graph_record, _packing_record, _read_text,
                   _write_out, check_edge_count, read_graph, write_graph)

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


def cmd_product(args: SimpleNamespace) -> int:
    g = read_graph(_read_text(args.fileG))
    h = read_graph(_read_text(args.fileH))
    p = cartesian(g, h) if args.kind == CARTESIAN else lexicographic(g, h)
    text = write_product(p)
    if args.out:
        _write_out(args.out, text)
    else:
        if args.format == "text":
            sys.stdout.write(text)
        else:
            record = {"kind": p.kind, "n1": p.n1, "n2": p.n2}
            record.update(_graph_record(p.graph))
            sys.stdout.write(_dump(record) + "\n")
    _emit_run_record(args, [args.kind, args.fileG, args.fileH],
                     {"n": p.graph.n, "m": p.graph.m, "out": args.out}, None)
    return 0


def _factor_packings(args: SimpleNamespace, g: Graph,
                     h: Graph) -> tuple[TreePacking, TreePacking]:
    from .verify import _load_packing
    overrides = args.factor_packing or []
    if len(overrides) > 2:
        raise InputError("--factor-packing may be given at most twice (G then H)")
    pg = (_load_packing(overrides[0], g)
          if len(overrides) >= 1 else _oracle_packing(g))
    ph = (_load_packing(overrides[1], h)
          if len(overrides) >= 2 else _oracle_packing(h))
    return pg, ph


def _oracle_packing(g: Graph) -> TreePacking:
    """The oracle's packing, or the single empty tree of a one-vertex graph."""
    from .oracle import max_packing
    if g.n == 1:
        return TreePacking(g, ((),))
    return max_packing(g).packing


def _pack(kind: str, g: Graph, h: Graph, pg: TreePacking,
          ph: TreePacking) -> TreePacking:
    """The verified construction for this product kind; imports only its module."""
    if kind == CARTESIAN:
        from .cartesian import pack_cartesian
        return pack_cartesian(g, h, pg, ph)
    from .lex import pack_lex
    return pack_lex(g, h, pg, ph)


def cmd_pack(args: SimpleNamespace) -> int:
    g = read_graph(_read_text(args.fileG))
    h = read_graph(_read_text(args.fileH))
    pg, ph = _factor_packings(args, g, h)
    packed = _pack(args.kind, g, h, pg, ph)
    count = len(packed.trees)
    graph_ref = "-"
    if args.out:
        graph_ref = os.path.basename(args.out) + ".graph"
        product = ProductGraph(args.kind, packed.host, g.n, h.n)
        _write_out(args.out + ".graph", write_product(product))
    record = _packing_record(graph_ref, packed, True)
    if args.out:
        _write_out(args.out, _dump(record) + "\n")
    else:
        if args.format == "text":
            sys.stdout.write(f"packed {args.kind} product: {count} trees "
                             f"(bound {count}), verified=true\n")
        else:
            sys.stdout.write(_dump(record) + "\n")
    _emit_run_record(args, [args.kind, args.fileG, args.fileH],
                     {"trees": count, "bound": count, "out": args.out}, True)
    return 0
