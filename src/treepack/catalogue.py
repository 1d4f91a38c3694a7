"""The catalogue of known packing numbers: seven closed forms, 16 table rows.

Each closed form gives sigma of one family on its stated domain, and raises
ValueError outside it.  A row of ``treepack table`` that is an instance of a
closed form takes its catalogued value from that form.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (Graph, complete, complete_multipartite, cycle, hypercube,
                   path)
from .products import CARTESIAN, LEXICOGRAPHIC

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
