"""The benchmark's own graphs, products and factor packings.

Nothing here imports treepack: inputs are built and outputs are checked with
code that shares no logic with the program under test.  A graph is a pair
(n, edges) with edges a sorted list of (a, b), a < b, on vertices 0..n-1.
Product vertex (u, v) is flattened to u * n2 + v, as the program documents.
"""

from __future__ import annotations

import random

Edge = tuple[int, int]
Graph = tuple[int, list[Edge]]


def _norm(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def make(n: int, edges) -> Graph:
    return n, sorted({_norm(a, b) for a, b in edges})


def path(n: int) -> Graph:
    return make(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    return make(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    return make(n, ((a, b) for a in range(n) for b in range(a + 1, n)))


def complete_minus(n: int, missing: Edge) -> Graph:
    return make(n, ((a, b) for a in range(n) for b in range(a + 1, n)
                    if (a, b) != _norm(*missing)))


def multipartite(parts: int, size: int) -> Graph:
    """K_{parts(size)}: part p holds vertices p*size .. (p+1)*size - 1."""
    n = parts * size
    return make(n, ((a, b) for a in range(n) for b in range(a + 1, n)
                    if a // size != b // size))


def hypercube(d: int) -> Graph:
    n = 1 << d
    return make(n, ((v, v ^ (1 << i)) for v in range(n) for i in range(d)))


def product(kind: str, g: Graph, h: Graph) -> Graph:
    """Cartesian ('cartesian') or lexicographic ('lex') product G x H / G o H."""
    (n1, eg), (n2, eh) = g, h
    edges = [(u * n2 + a, u * n2 + b) for u in range(n1) for a, b in eh]
    if kind == "cartesian":
        edges += [(a * n2 + v, b * n2 + v) for a, b in eg for v in range(n2)]
    else:
        edges += [(a * n2 + x, b * n2 + y) for a, b in eg
                  for x in range(n2) for y in range(n2)]
    return make(n1 * n2, edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    n, edges = g
    return make(n, ((perm[a], perm[b]) for a, b in edges))


def relabel_trees(trees: list[list[Edge]], perm: list[int]) -> list[list[Edge]]:
    return [sorted(_norm(perm[a], perm[b]) for a, b in t) for t in trees]


def random_perm(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def walecki_paths(n: int) -> list[list[Edge]]:
    """n/2 edge-disjoint Hamiltonian paths of K_n for even n (Walecki).

    The zigzag paths i, i+1, i-1, i+2, i-2, ... (mod n), i < n/2, partition
    the edges of K_n.
    """
    if n % 2:
        raise ValueError("Walecki paths need an even n")
    trees = []
    for i in range(n // 2):
        seq = [i]
        for j in range(1, n):
            step = (j + 1) // 2
            seq.append((i + step) % n if j % 2 else (i - step) % n)
        trees.append(sorted(_norm(a, b) for a, b in zip(seq, seq[1:])))
    return trees


def spanning_path(g: Graph) -> list[list[Edge]]:
    """The single-tree packing of a path or cycle: the path 0, 1, ..., n-1."""
    return [sorted(_norm(i, i + 1) for i in range(g[0] - 1))]


def bfs_tree(g: Graph) -> list[list[Edge]]:
    """A single breadth-first spanning tree from vertex 0."""
    n, edges = g
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    seen[0] = True
    queue, tree = [0], []
    for v in queue:
        for w in sorted(adj[v]):
            if not seen[w]:
                seen[w] = True
                queue.append(w)
                tree.append(_norm(v, w))
    return [sorted(tree)]


def dense_known_sigma(n: int, k: int, extra: int, rng: random.Random) -> Graph:
    """k random, randomly relabelled Walecki paths of K_n plus `extra` edges.

    With extra < n-1 the graph has m < (k+1)(n-1) edges, so its packing
    number is exactly k: the k paths are a maximum packing.
    """
    if not (k <= n // 2 and extra < n - 1):
        raise ValueError("need k <= n/2 and extra < n-1")
    perm = random_perm(n, rng)
    trees = relabel_trees(rng.sample(walecki_paths(n), k), perm)
    used = {e for t in trees for e in t}
    rest = [e for e in complete(n)[1] if e not in used]
    return make(n, used | set(rng.sample(rest, extra)))


def sparse_known_sigma(n: int, k: int, extra: int, rng: random.Random) -> Graph:
    """k edge-disjoint random spanning trees plus `extra` random edges.

    Each tree attaches vertices in random order to a random earlier vertex,
    avoiding edges already used; extra < n-1 keeps the packing number at k.
    """
    if extra >= n - 1:
        raise ValueError("need extra < n-1")
    used: set[Edge] = set()
    trees = 0
    while trees < k:
        order = random_perm(n, rng)
        tree = []
        for i in range(1, n):
            for _ in range(64):
                e = _norm(order[i], order[rng.randrange(i)])
                if e not in used:
                    break
            else:
                break
            used.add(e)
            tree.append(e)
        if len(tree) == n - 1:
            trees += 1
        else:
            used.difference_update(tree)
    while extra:
        e = _norm(*rng.sample(range(n), 2))
        if e not in used:
            used.add(e)
            extra -= 1
    return make(n, used)


def write_edge_list(path_: str, g: Graph, comment: str = "") -> None:
    n, edges = g
    lines = [f"# {comment}"] if comment else []
    lines.append(f"p {n} {len(edges)}")
    lines.extend(f"e {a} {b}" for a, b in edges)
    with open(path_, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def packing_record(trees: list[list[Edge]]) -> dict:
    """A packing file in the program's documented JSON format."""
    return {"graph": "-", "method": "user", "bound": len(trees),
            "trees": [[list(e) for e in t] for t in trees], "verified": True}
