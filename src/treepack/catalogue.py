"""The catalogue: six graph families, seven closed forms, 16 table rows.

Each closed form gives sigma of one family on its stated domain, and raises
ValueError outside it.  A row of ``treepack table`` that is an instance of a
closed form takes its catalogued value from that form.  ``treepack gen``
builds a family and ``treepack table`` runs the rows.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Any, NamedTuple

from .core import (Graph, ParameterError, SizeError, _dump, _emit_run_record,
                   _graph_record, _write_out, check_edge_count, write_graph)


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"path requires n >= 1, got {n}")
    check_edge_count(n - 1)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError(f"cycle requires n >= 3, got {n}")
    check_edge_count(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"complete requires n >= 1, got {n}")
    check_edge_count(n * (n - 1) // 2)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_multipartite(parts: int, size: int) -> Graph:
    """Complete multipartite graph with ``parts`` parts of ``size`` vertices.

    Vertices are grouped by part: part p holds p*size .. (p+1)*size - 1.
    """
    if parts < 2:
        raise ParameterError(f"complete_multipartite requires parts >= 2, got {parts}")
    if size < 1:
        raise ParameterError(f"complete_multipartite requires size >= 1, got {size}")
    check_edge_count(parts * (parts - 1) // 2 * size * size)
    n = parts * size
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if a // size != b // size]
    return Graph.from_edges(n, edges)


def hypercube(dim: int) -> Graph:
    """The dim-dimensional hypercube: v ~ w iff v and w differ in one bit."""
    if dim < 1:
        raise ParameterError(f"hypercube requires dimension >= 1, got {dim}")
    if dim > 64:   # the exact edge count would be a dim-bit integer
        raise SizeError(f"hypercube dimension {dim} is above 64")
    check_edge_count(dim << (dim - 1))
    n = 1 << dim
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return Graph.from_edges(n, edges)


def complete_minus_edge(n: int) -> Graph:
    """K_n with the single edge {n-2, n-1} removed."""
    if n < 3:
        raise ParameterError(f"complete_minus_edge requires n >= 3, got {n}")
    check_edge_count(n * (n - 1) // 2 - 1)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) != (n - 2, n - 1)]
    return Graph.from_edges(n, edges)


# CLI family name -> (constructor, parameter count)
FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "multipartite": (complete_multipartite, 2),
    "hypercube": (hypercube, 1),
    "complete-minus-edge": (complete_minus_edge, 1),
}


# Closed forms for packing numbers of the seven catalogued families.
# Rows: 1 K_n x C_m, 2 K_n x K_m, 3 hypercube Q_n, 4 K_{n(m)} x K_r,
# 5 K_{n(m)} x C_r, 6 K_{n(m)} x K_{r(t)}, 7 K_{n(m)} alone.
# All products are cartesian.


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
        if n < 2:
            raise ValueError("row 3 requires n >= 2")
        return n // 2
    if row == 4:
        n, m, r = params
        if m < 2 and r < 2:
            raise ValueError("row 4 requires m >= 2 or r >= 2")
        return (n * m - m + r - 1) // 2
    if row == 5:
        n, m, r = params
        return (n * m - m + 2) // 2
    if row == 6:
        n, m, r, t = params
        return (m * (n - 1) + (r - 1) * t) // 2
    if row == 7:
        n, m = params
        if m < 2:
            raise ValueError("row 7 requires m >= 2")
        return m * (n - 1) // 2
    raise ValueError(f"row must be 1..7, got {row}")


class TableRow(NamedTuple):
    label: str
    kind: str | None          # cartesian | lex | None (plain graph)
    g: Graph
    h: Graph | None
    closed: int | None        # catalogued exact value, if any
    expect_tight: bool | None  # None: no expectation enforced


def table_rows() -> list[TableRow]:
    """The rows of ``treepack table``, in output order."""
    from .products import CARTESIAN, LEXICOGRAPHIC   # here, so gen loads no products
    return [
        TableRow("P3 x P3", CARTESIAN, path(3), path(3), 1, True),
        TableRow("P4 x P4", CARTESIAN, path(4), path(4), 1, True),
        TableRow("P5 x P5", CARTESIAN, path(5), path(5), 1, True),
        TableRow("K4 x C3", CARTESIAN, complete(4), cycle(3),
                 proposition_value(1, (4, 3)), True),
        TableRow("K4 x C4", CARTESIAN, complete(4), cycle(4),
                 proposition_value(1, (4, 4)), True),
        TableRow("K4 x C5", CARTESIAN, complete(4), cycle(5),
                 proposition_value(1, (4, 5)), True),
        TableRow("K5 x C4", CARTESIAN, complete(5), cycle(4),
                 proposition_value(1, (5, 4)), False),
        TableRow("K4 x K4", CARTESIAN, complete(4), complete(4),
                 proposition_value(2, (4, 4)), True),
        TableRow("K4 x K6", CARTESIAN, complete(4), complete(6),
                 proposition_value(2, (4, 6)), True),
        # Q3 x P2 is Q4 and Q4 x P2 is Q5
        TableRow("Q3 x P2", CARTESIAN, hypercube(3), path(2),
                 proposition_value(3, (4,)), False),
        TableRow("Q4 x P2", CARTESIAN, hypercube(4), path(2),
                 proposition_value(3, (5,)), True),
        TableRow("K2(2) x K3", CARTESIAN, complete_multipartite(2, 2), complete(3),
                 proposition_value(4, (2, 2, 3)), False),
        TableRow("K3(2)", None, complete_multipartite(3, 2), None,
                 proposition_value(7, (3, 2)), None),
        TableRow("K2 o K2", LEXICOGRAPHIC, complete(2), complete(2), 2, True),
        TableRow("P3 o K4", LEXICOGRAPHIC, path(3), complete(4), 4, True),
        TableRow("K5 o P3", LEXICOGRAPHIC, complete(5), path(3), None, None),
    ]


def cmd_gen(args: SimpleNamespace) -> int:
    make, count = FAMILIES[args.family]
    if len(args.params) != count:
        raise ParameterError(
            f"{make.__name__} takes {count} parameter(s), got {len(args.params)}")
    g = make(*args.params)
    text = write_graph(g, [f"family {args.family} {' '.join(map(str, args.params))}"])
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text if args.format == "text" else _dump(_graph_record(g)) + "\n")
    _emit_run_record(args, [args.family] + [str(p) for p in args.params],
                     {"n": g.n, "m": g.m, "out": args.out}, None)
    return 0


def _run_table_row(row: TableRow) -> dict[str, Any]:
    from .oracle import max_packing
    from .products import _pack
    if row.kind is None:
        host = row.g
        bound = None
        verified = None
    else:
        packed = _pack(row.kind, row.g, row.h, max_packing(row.g).packing,
                       max_packing(row.h).packing)
        host = packed.host
        bound = len(packed.trees)
        verified = True  # _pack verifies, as in cmd_pack
    sigma = max_packing(host).sigma

    failures = []
    if row.closed is not None and sigma != row.closed:
        failures.append(f"oracle {sigma} != closed form {row.closed}")
    if bound is not None and bound > sigma:
        failures.append(f"bound {bound} exceeds oracle {sigma}")
    if row.expect_tight is True and bound != sigma:
        failures.append(f"expected tight, bound {bound} != oracle {sigma}")

    if bound is None:
        note = "no construction"
    elif bound == sigma:
        note = "tight"
    else:
        note = "bound<sigma"
    return {
        "graph": row.label,
        "closed": row.closed,
        "bound": bound,
        "sigma": sigma,
        "verified": verified,
        "note": note,
        "failures": failures,
    }


def cmd_table(args: SimpleNamespace) -> int:
    rows = [_run_table_row(r) for r in table_rows()]
    if args.format == "text":
        header = f"{'graph':<12} {'closed':>6} {'bound':>5} {'sigma':>5} {'verified':>8}  note"
        lines = [header, "-" * len(header)]
        for r in rows:
            closed = "-" if r["closed"] is None else str(r["closed"])
            bound = "-" if r["bound"] is None else str(r["bound"])
            ver = "-" if r["verified"] is None else "yes"
            note = r["note"]
            if r["failures"]:
                note += "  !! " + "; ".join(r["failures"])
            lines.append(f"{r['graph']:<12} {closed:>6} {bound:>5} "
                         f"{r['sigma']:>5} {ver:>8}  {note}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_dump(rows) + "\n")
    failed = [r["graph"] for r in rows if r["failures"]]
    _emit_run_record(args, [], {"rows": len(rows), "failed": failed}, True)
    if args.strict and failed:
        print(f"strict: failing rows: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0
