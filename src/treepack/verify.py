"""Structural validation of trees and packings, plus closed-form spot checks.

Verification never trusts how an object was built: every check recomputes the
property from the edge lists and carries a concrete witness on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .core import (Edge, EdgeSet, Graph, SizeError, TreePacking, complete,
                   complete_multipartite, cycle, hypercube)
from .oracle import max_packing
from .products import cartesian


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: Any = None

    def render(self) -> str:
        mark = "ok" if self.passed else "FAIL"
        tail = "" if self.passed or self.witness is None else f"  [{self.witness}]"
        return f"  {mark:4} {self.name}{tail}"


@dataclass(frozen=True)
class VerificationReport:
    subject: str
    checks: tuple[Check, ...] = field(default_factory=tuple)

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


def _tree_checks(host: Graph, t: EdgeSet, tag: str) -> list[Check]:
    n = host.n
    checks = []
    stray = ([] if host.edge_set.issuperset(t.edges)
             else [e for e in t if e not in host.edge_set])
    checks.append(Check(f"{tag}: edges belong to host", not stray,
                        stray[0] if stray else None))
    checks.append(Check(f"{tag}: edge count is n-1", len(t) == n - 1,
                        f"{len(t)} != {n - 1}" if len(t) != n - 1 else None))
    # Host edges are in range, so only stray edges can break the union-find.
    outside = next((e for e in stray if not all(0 <= v < n for v in e)), None)
    if outside is not None:
        checks.append(Check(f"{tag}: vertices in range 0..n-1", False,
                            f"edge {outside} has a vertex outside 0..{n - 1}"))
        return checks

    # union-find with path halving, inlined: this loop sees every edge
    parent = list(range(n))
    cycle_edge = None
    for a, b in t:
        ra, rb = a, b
        while parent[ra] != ra:
            parent[ra] = ra = parent[parent[ra]]
        while parent[rb] != rb:
            parent[rb] = rb = parent[parent[rb]]
        if ra == rb:
            cycle_edge = (a, b)
            break
        parent[ra] = rb
    checks.append(Check(f"{tag}: acyclic", cycle_edge is None,
                        f"edge {cycle_edge} closes a cycle" if cycle_edge else None))

    # n-1 edges that close no cycle join all n vertices: nothing to scan
    separated = None
    if n and (cycle_edge is not None or len(t) != n - 1):
        def find(v: int) -> int:
            while parent[v] != v:
                v = parent[v]
            return v
        root = find(0)
        separated = next((v for v in range(n) if find(v) != root), None)
    checks.append(Check(f"{tag}: spans and connects all vertices",
                        separated is None,
                        f"vertex {separated} separated from vertex 0"
                        if separated is not None else None))
    return checks


def verify_tree(host: Graph, t: EdgeSet) -> VerificationReport:
    """Pass iff t has n-1 host edges forming a connected, acyclic, spanning set."""
    return VerificationReport(f"tree on {host.n} vertices",
                              tuple(_tree_checks(host, t, "tree")))


def verify_packing(host: Graph, packing: TreePacking) -> VerificationReport:
    """Pass iff every tree verifies and no edge is used twice."""
    checks: list[Check] = []
    for idx, t in enumerate(packing.trees):
        checks.extend(_tree_checks(host, t, f"tree {idx}"))
    clash = None
    edges = [t.edges for t in packing.trees]
    if len(set().union(*edges)) != sum(map(len, edges)):
        seen: dict[Edge, int] = {}
        for idx, t in enumerate(edges):  # name the first shared edge
            for e in t:
                if e in seen:
                    clash = (e, seen[e], idx)
                    break
                seen[e] = idx
            if clash:
                break
    checks.append(Check(
        "trees pairwise edge-disjoint", clash is None,
        f"edge {clash[0]} in trees {clash[1]} and {clash[2]}" if clash else None))
    subject = f"packing of {len(packing.trees)} trees ({packing.method})"
    return VerificationReport(subject, tuple(checks))


# Closed forms for packing numbers of the seven catalogued families.
# Rows: 1 K_n x C_m, 2 K_n x K_m, 3 hypercube Q_n, 4 K_{n(m)} x K_r,
# 5 K_{n(m)} x C_r, 6 K_{n(m)} x K_{r(t)}, 7 K_{n(m)} alone.
# All products are cartesian.

def proposition_graph(row: int, params: tuple[int, ...]) -> Graph:
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


def proposition_value(row: int, params: tuple[int, ...]) -> int:
    if row == 1:
        n, m = params
        return (n + 1) // 2
    if row == 2:
        n, m = params
        if not 2 <= n <= m:
            raise ValueError("row 2 requires 2 <= n <= m")
        return (n + m - 2) // 2
    if row == 3:
        (n,) = params
        return n // 2
    if row == 4:
        n, m, r = params
        return (n * m - m + r - 1) // 2
    if row == 5:
        n, m, r = params
        return (n * m - m + 2) // 2
    if row == 6:
        n, m, r, t = params
        return (m * (n - 1) + (r - 1) * t) // 2
    if row == 7:
        n, m = params
        return m * (n - 1) // 2
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
