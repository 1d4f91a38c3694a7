"""Structural validation of trees and packings.

Verification never trusts how an object was built: every check recomputes the
property from the edge lists and carries a concrete witness on failure.  It
is the bottom layer: it imports only ``core``.  ``treepack verify`` runs here.
Every ``TreePacking`` is made here: ``verified_packing`` ends each construction
and the oracle, ``_load_packing`` reads a packing file.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Iterator, NamedTuple

from .core import (ConstructionError, ContractError, Edge, Graph, ParseError,
                   TreePacking, _read_text, read_graph)


class Check(NamedTuple):
    name: str
    passed: bool
    witness: Any = None

    def render(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        tail = "" if self.passed or self.witness is None else f"  [{self.witness}]"
        return f"  {mark:4} {self.name}{tail}"


class VerificationReport(NamedTuple):
    subject: str
    checks: tuple[Check, ...] = ()

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        head = f"{'PASS' if self.overall else 'FAIL'} {self.subject}"
        return "\n".join([head] + [c.render() for c in self.checks])

    def to_record(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "overall": self.overall,
            "checks": [
                {"name": c.name, "passed": c.passed,
                 "witness": None if c.witness is None else str(c.witness)}
                for c in self.checks
            ],
        }


def _find(parent: Any, v: int) -> int:
    """v's union-find root, halving the path: writes only to non-roots."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


class _Roots(dict):
    """Union-find parents of the vertices a tree touches; others are roots."""

    def __missing__(self, v: int) -> int:
        return v


def _tree_checks(n: int, stray: list[Edge], t: tuple[Edge, ...],
                 tag: str) -> Iterator[Check]:
    yield Check(f"{tag}: edges belong to host", not stray,
                stray[0] if stray else None)
    yield Check(f"{tag}: edge count is n-1", len(t) == n - 1,
                f"{len(t)} != {n - 1}" if len(t) != n - 1 else None)
    # Host edges are in range, so only stray edges can break the union-find.
    outside = next((e for e in stray if not all(0 <= v < n for v in e)), None)
    if outside is not None:
        yield Check(f"{tag}: vertices in range 0..n-1", False,
                    f"edge {outside} has a vertex outside 0..{n - 1}")
        return

    # union-find with path halving, inlined: it merges every edge and keeps
    # the first whose ends are already joined.  A tree short of n-1 edges
    # costs O(its edges), not O(n): _Roots holds the vertices it touches, and
    # the scan below stops at the smallest vertex the tree leaves apart from 0.
    parent = list(range(n)) if len(t) >= n - 1 else _Roots()
    cycle_edge = None
    for a, b in t:
        ra, rb = a, b
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra != rb:
            parent[ra] = rb
        elif cycle_edge is None:
            cycle_edge = (a, b)
    yield Check(f"{tag}: acyclic", cycle_edge is None,
                f"edge {cycle_edge} closes a cycle" if cycle_edge else None)

    # n-1 edges that close no cycle join all n vertices: nothing to scan
    separated = None
    if n and (cycle_edge is not None or len(t) != n - 1):
        root = _find(parent, 0)
        separated = next((v for v in range(n) if _find(parent, v) != root), None)
    yield Check(f"{tag}: spans and connects all vertices", separated is None,
                f"vertex {separated} separated from vertex 0"
                if separated is not None else None)


def _checks(host: Graph, trees: tuple[tuple[Edge, ...], ...]) -> Iterator[Check]:
    """A packing's checks in report order, each made only when it is read."""
    # Each tree drains its edges from one set of the host edges no earlier tree
    # took: one that removes len(t) of them has no stray, repeated or shared
    # edge, so only a short drain scans its tree against the host, and only
    # after one is the whole packing unioned for the disjointness check.
    free, host_edges, short = set(host.edges), None, False
    for idx, t in enumerate(trees):
        left = len(free)
        free.difference_update(t)
        stray = []
        if left - len(free) != len(t):
            short, host_edges = True, host_edges or frozenset(host.edges)
            stray = [e for e in t if e not in host_edges]
        yield from _tree_checks(host.n, stray, t, f"tree {idx}")
    clash = None
    if short and len(set().union(*trees)) != sum(map(len, trees)):
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


def verify_packing(host: Graph, packing: TreePacking) -> VerificationReport:
    """Pass iff every tree verifies, no edge is used twice and a one-vertex
    host has at most one tree."""
    subject = f"packing of {len(packing.trees)} trees ({packing.method})"
    return VerificationReport(subject, tuple(_checks(host, packing.trees)))


def verified_packing(host: Graph, trees: list[list[Edge]], method: str,
                     expected: int) -> TreePacking:
    """How every construction and the oracle end: each tree's edges, in any
    order, sorted into the packing; ConstructionError unless there are
    ``expected`` trees and ``verify_packing`` passes them."""
    if len(trees) != expected:
        raise ConstructionError(
            f"internal: built {len(trees)} trees, expected {expected}")
    packing = TreePacking(host, tuple(tuple(sorted(t)) for t in trees), method)
    report = verify_packing(host, packing)
    if not report.overall:
        raise ConstructionError(
            "internal: constructed packing invalid\n" + report.render())
    return packing


def check_packing(packing: TreePacking, host: Graph, role: str) -> None:
    """Raise ContractError unless the packing is valid for the given host.

    Beyond the host match and at least one tree, this reads ``verify_packing``'s
    checks up to the first failure, named with its witness after the role.
    A packing that passes has k <= n // 2 trees on n >= 2 vertices, since
    k(n-1) <= n(n-1)/2, and one tree on one vertex.
    """
    if packing.host != host:
        raise ContractError(f"{role}: packing host does not match the graph")
    if len(packing.trees) < 1:
        raise ContractError(f"{role}: packing must contain at least one tree")
    failed = next((c for c in _checks(host, packing.trees) if not c.passed), None)
    if failed is not None:
        raise ContractError(f"{role}: {failed.name} fails: {failed.witness}")


def _packing_record(graph_ref: str, packing: TreePacking) -> dict[str, Any]:
    """A packing file of a verified packing; its bound is its tree count
    (sigma for the oracle)."""
    return {
        "graph": graph_ref,
        "method": packing.method,
        "bound": len(packing.trees),
        "trees": packing.trees,
        "verified": True,
    }


def _load_packing(path_: str, host: Graph) -> TreePacking:
    """Check a packing file's shape only: ``pack_*`` and ``verify`` check its
    trees.  Its ``method``, which a report prints, must be printable text."""
    import json
    text = _read_text(path_)
    try:
        record = json.loads(text)
    except RecursionError:
        raise ParseError(f"{path_}: JSON nested too deeply") from None
    except ValueError as exc:   # not JSON, or an integer past int()'s digit limit
        raise ParseError(f"{path_}: {exc}") from None
    if not isinstance(record, dict) or not isinstance(record.get("trees"), list):
        raise ParseError(f"{path_}: packing needs a \"trees\" list")
    method = record.get("method", "user")
    if not (isinstance(method, str) and method.isprintable()):
        raise ParseError(f"{path_}: packing \"method\" must be printable text")
    trees = []
    for idx, raw in enumerate(record["trees"]):
        if not isinstance(raw, list):
            raise ParseError(f"{path_}: tree {idx} is not a list of edges")
        edges = []
        for e in raw:
            if type(e) is not list or len(e) != 2:
                raise ParseError(f"{path_}: tree {idx} entry {e!r} is not a [u, v] pair")
            a, b = e
            if type(a) is not int or type(b) is not int:
                raise ParseError(
                    f"{path_}: tree {idx} edge {e!r} has a non-integer vertex")
            edges.append((a, b) if a < b else (b, a))
        edges.sort()
        trees.append(tuple(edges))
    return TreePacking(host, tuple(trees), method)


def cmd_verify(args: SimpleNamespace) -> tuple[str, Any, dict, bool]:
    g = read_graph(_read_text(args.graphfile))
    packing = _load_packing(args.packingfile, g)
    report = verify_packing(g, packing)
    return (report.render() + "\n", report.to_record(),
            {"trees": len(packing.trees)}, report.overall)
