"""Simple undirected graphs: carrier types, edge-list I/O, command records.

Vertices are dense integers 0..n-1.  Edges are stored as (min, max) pairs in
sorted order, so every downstream "pick the first" tie-break is deterministic.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import lt
from typing import Any, Iterable, NamedTuple, Sequence

Edge = tuple[int, int]


class ParameterError(ValueError):
    """A family parameter violates its documented bound."""


class ParseError(ValueError):
    """Malformed edge-list text; the message carries the line number."""


class InputError(ValueError):
    """Structurally valid input that an operation cannot accept."""


class ContractError(ValueError):
    """A caller-supplied object violates an operation's precondition."""


class ConstructionError(RuntimeError):
    """A packing construction produced or detected an invalid state."""


class SizeError(ValueError):
    """Instance too large to build or to search exhaustively."""


# Largest edge count a graph may have, whether read, generated or built as a
# product.  The benchmark's largest product, K40 x C40, has 33k edges.
MAX_EDGES = 2_000_000
# Most oracle work, m * floor(m / (n-1)), that max_packing takes on.  A unit
# costs 3-43 us, and K40 x C40's 656,000 units take 10-17 s: this keeps 15x
# headroom and refuses K_n from n = 343 (K2000 is about 2.0e9 units).
MAX_ORACLE_WORK = 10_000_000


def check_edge_count(m: int, what: str = "graph") -> None:
    """Raise SizeError before building a graph with more than MAX_EDGES edges."""
    if m > MAX_EDGES:
        raise SizeError(f"{what} would have {m} edges, more than {MAX_EDGES}")


def normalize_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def root_tree(n: int, edges: Iterable[Edge]) -> tuple[Edge, ...]:
    """The breadth-first tree of vertex 0's component in (0..n-1, edges),
    scanning neighbors in ascending order: its edges as (parent, child), in
    discovery order of the child.  A spanning tree comes back as itself,
    oriented."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    seen[0] = True
    tree = []
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if not seen[w]:
                seen[w] = True
                tree.append((v, w))
                queue.append(w)
    return tuple(tree)


class Graph(NamedTuple):
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` is a sorted tuple of (min, max) pairs with no loops and no
    duplicates.
    """

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        if n < 0:
            raise ParameterError(f"vertex count must be >= 0, got {n}")
        norm = []
        for a, b in edges:
            if a == b:
                raise ParameterError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ParameterError(f"edge ({a},{b}) out of range for n={n}")
            norm.append(normalize_edge(a, b))
        ordered = tuple(sorted(norm))
        for e, f in zip(ordered, ordered[1:]):
            if e == f:
                raise ParameterError(f"duplicate edge {e}")
        return cls(n, ordered)

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        # fewer than n-1 edges cannot connect n vertices: decide before
        # root_tree() allocates O(n)
        if self.m < self.n - 1:
            return False
        return self.n <= 1 or len(root_tree(self.n, self.edges)) == self.n - 1


class TreePacking(NamedTuple):
    """Pairwise edge-disjoint spanning trees of a common host graph.

    A tree is a sorted tuple of (min, max) edges; the packing alone holds
    the host.  ``method`` records provenance: constructed-cartesian,
    constructed-lex, oracle, or user.
    """

    host: Graph
    trees: tuple[tuple[Edge, ...], ...]
    method: str = "user"


# ---------------------------------------------------------------------------
# edge-list text format:
#   optional '#' comment lines and blanks, then
#   p <n> <m>
#   m lines: e <a> <b> with 0 <= a < b < n
# where every number is written in ASCII decimal digits and lines end at
# '\n' only: other line breaks, '\r' included, are whitespace within a line

def write_graph(g: Graph, header_comments: Sequence[str] = ()) -> str:
    head = "".join(f"# {c}\n" for c in header_comments)
    # one %-format over every endpoint, not one format per edge: faster
    body = ("e %d %d\n" * g.m) % tuple(chain.from_iterable(g.edges))
    return f"{head}p {g.n} {g.m}\n{body}"


def _ascii_ints(raw: str, words: list[str]) -> tuple[int, int]:
    """words[1:3] as numbers if their line has no '+', '_' or non-ASCII."""
    if not raw.isascii() or "_" in raw or "+" in raw:
        raise ValueError(raw)
    return int(words[1]), int(words[2])


def read_graph(text: str) -> Graph:
    """Parse edge-list text; the line reader, the reference, names a bad line."""
    return _read_written(text) or _read_lines(text)


def _read_written(text: str) -> Graph | None:
    """The graph of a text in write_graph's layout, else None: '#' lines,
    'p n m' (n <= m + 1), m ascending ASCII 'e a b' lines with 'e' in column 0.
    No number starts with 'e', so m such lines over m triples hold one each."""
    start = 0
    try:
        while text.startswith("#", start):
            start = text.index("\n", start) + 1
        end = text.index("\n", start) + 1
        n, m = map(int, text[start + 1:end].split())
        body = text[end:]
        tokens = body.split()
        if (text[start:end] != f"p {n} {m}\n" or not 0 <= n <= m + 1 <= MAX_EDGES + 1
                or not (text.endswith("\n") and body.isascii())
                or len(tokens) != 3 * m or tokens[::3].count("e") != m
                or not body.count("\n") == m == body.count("\ne") + body.startswith("e")):
            return None
        vertex = {str(v): v for v in range(n)}   # the endpoints str() writes
        a = list(map(vertex.__getitem__, tokens[1::3]))
        b = list(map(vertex.__getitem__, tokens[2::3]))
    except (KeyError, ValueError):
        return None
    edges = list(zip(a, b))
    ascending = all(map(lt, a, b)) and all(map(lt, edges, edges[1:]))
    return Graph(n, tuple(edges)) if ascending else None


def _read_lines(text: str) -> Graph:
    """Parse edge-list text; each line is checked once, as it is read."""
    n = None
    m = None
    seen: set[Edge] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: 'e' line before 'p' line")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e <a> <b>'")
            try:
                e = a, b = _ascii_ints(raw, parts)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint") from None
            if 0 <= a < b < n and e not in seen:
                seen.add(e)
                continue
            if a == b:
                problem = f"self-loop 'e {a} {b}' not allowed"
            elif not a < b:
                problem = "endpoints must satisfy a < b"
            elif a < 0 or b >= n:
                problem = f"endpoint {b if b >= n else a} out of range for n={n}"
            else:
                problem = f"duplicate edge ({a},{b})"
            raise ParseError(f"line {lineno}: {problem}")
        elif parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: second 'p' line")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m = _ascii_ints(raw, parts)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer in 'p' line") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative count in 'p' line")
            # no connected graph on more than MAX_EDGES + 1 vertices fits
            # under the edge cap
            if m > MAX_EDGES or n > MAX_EDGES + 1:
                raise SizeError(
                    f"line {lineno}: 'p {n} {m}' is above the cap of "
                    f"{MAX_EDGES} edges and {MAX_EDGES + 1} vertices")
        else:
            raise ParseError(f"line {lineno}: unrecognized line {raw.strip()!r}")
    if n is None:
        raise ParseError("missing 'p <n> <m>' line")
    if len(seen) != m:
        raise ParseError(f"'p' line promises {m} edges, found {len(seen)}")
    return Graph(n, tuple(sorted(seen)))


# ---------------------------------------------------------------------------
# what every command reads, writes and records; each ``cmd_*`` lives beside
# the modules it runs and returns what ``cli.main`` prints.  Stdout carries
# the requested artifact and is byte-identical across runs of the same
# command.

def _read_text(path_: str) -> str:
    # newline="": lines end where read_graph ends them, at '\n' only
    with open(path_, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path_}: not UTF-8 text ({exc.reason})") from None


def _write_out(path_: str, text: str) -> None:
    with open(path_, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump(record: Any) -> str:
    import json
    # a record is tuples, lists and dicts built here, never containing itself
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      check_circular=False)


def _graph_record(g: Graph) -> dict[str, Any]:
    return {"n": g.n, "m": g.m, "edges": g.edges}
