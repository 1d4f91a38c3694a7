"""Independent checks of the program's outputs.

Shares no code with treepack.verify: trees are checked with a union-find over
the benchmark's own edge lists, tree counts against bounds recomputed from
the factor packing sizes, and oracle values against the returned partition
and against closed forms.  Each check returns None on success or a one-line
reason.
"""

from __future__ import annotations

from typing import Iterable

from graphs import Edge, Graph


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def cartesian_bound(k: int, ell: int) -> int:
    return k + ell - 1


def lex_bound(k: int, ell: int, n1: int, n2: int) -> int:
    """Tree count of the lexicographic construction in its three regimes."""
    if ell * n1 == k * n2:
        return k * n2
    if ell * n1 > k * n2:
        return k * n2 - _ceil_div(k * n2 - 1, n1) + ell - 1
    return k * n2 - 2 * _ceil_div(k * n2 - 1, n1 + 1) + ell - 1


def product_bound(kind: str, k: int, ell: int, n1: int, n2: int) -> int:
    return cartesian_bound(k, ell) if kind == "cartesian" else lex_bound(k, ell, n1, n2)


def _as_edges(raw: Iterable) -> list[Edge]:
    return [(int(a), int(b)) for a, b in raw]


def trees_problem(g: Graph, trees: list[list[Edge]]) -> str | None:
    """None iff every tree is a spanning tree of g and no edge is used twice."""
    n, edges = g
    host = set(edges)
    used: set[Edge] = set()
    for idx, raw in enumerate(trees):
        tree = _as_edges(raw)
        if len(tree) != n - 1:
            return f"tree {idx} has {len(tree)} edges, expected {n - 1}"
        parent = list(range(n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in tree:
            e = (a, b) if a < b else (b, a)
            if e not in host:
                return f"tree {idx} uses {e}, not an edge of the graph"
            if e in used:
                return f"edge {e} is used by two trees"
            used.add(e)
            ra, rb = find(a), find(b)
            if ra == rb:
                return f"tree {idx} has a cycle through {e}"
            parent[ra] = rb
    return None


def pack_problem(record: dict, kind: str, g: Graph, h: Graph, k: int,
                 ell: int, host: Graph) -> str | None:
    """A pack record must be verified, valid on host and hold the bound."""
    if record.get("verified") is not True:
        return "record says verified is not true"
    trees = record.get("trees", [])
    expected = product_bound(kind, k, ell, g[0], h[0])
    if len(trees) != expected or record.get("bound") != expected:
        return (f"{len(trees)} trees, bound {record.get('bound')}; "
                f"recomputed bound {expected}")
    return trees_problem(host, trees)


def oracle_problem(record: dict, g: Graph, sigma: int | None) -> str | None:
    """sigma must equal the returned partition's bound and any known value."""
    n, edges = g
    got = record.get("sigma")
    cert = record.get("certificate", {})
    blocks = cert.get("partition", [])
    flat = sorted(v for b in blocks for v in b)
    if flat != list(range(n)) or len(blocks) < 2:
        return f"partition of {len(blocks)} blocks does not partition 0..{n - 1}"
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    crossing = sum(1 for a, b in edges if block_of[a] != block_of[b])
    bound = crossing // (len(blocks) - 1)
    if cert.get("crossing_count") != crossing or cert.get("bound") != bound:
        return (f"certificate says {cert.get('crossing_count')} crossing, "
                f"bound {cert.get('bound')}; recomputed {crossing}, {bound}")
    if got != bound:
        return f"sigma {got} differs from partition bound {bound}"
    if sigma is not None and got != sigma:
        return f"sigma {got} differs from known value {sigma}"
    packing = record.get("packing", {})
    if packing.get("verified") is not True:
        return "packing record says verified is not true"
    trees = packing.get("trees", [])
    if len(trees) != got:
        return f"{len(trees)} trees for sigma {got}"
    return trees_problem(g, trees)


def graph_file_problem(text: str, g: Graph) -> str | None:
    """The written edge list must be exactly the benchmark's own product."""
    n = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            n = int(parts[1])
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    if n != g[0] or sorted(edges) != g[1]:
        return f"written graph (n={n}, m={len(edges)}) is not the product"
    return None
