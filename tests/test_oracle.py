import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepack.catalogue import (complete, complete_minus_edge,
                                complete_multipartite, cycle, hypercube, path)
from treepack.core import (ConstructionError, Graph, InputError, SizeError,
                           read_graph)
from treepack.oracle import _find, _ForestFamily, max_packing
from treepack.products import cartesian, lexicographic
from treepack.verify import verify_packing

from reference import tutte_bruteforce


def random_connected(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a random subset of the remaining pairs."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    others = [(a, b) for a in range(n) for b in range(a + 1, n)
              if (a, b) not in edges]
    rng.shuffle(others)
    edges.update(others[:rng.randint(0, len(others))])
    return Graph.from_edges(n, sorted(edges))


def edge_bound(g: Graph) -> int:
    """floor(m / (n-1)): no packing can use more edges than the graph has."""
    return g.m // (g.n - 1)


def test_edge_bound_values():
    assert edge_bound(path(5)) == 1
    assert edge_bound(complete(4)) == 2
    assert edge_bound(lexicographic(path(3), complete(4)).graph) == 4   # 50//11
    assert edge_bound(lexicographic(complete_minus_edge(4), path(3)).graph) == 4  # 53//11


def test_max_packing_known_values():
    cases = [
        (path(6), 1),
        (cycle(7), 1),
        (complete(4), 2),
        (complete(6), 3),
        (complete_multipartite(3, 2), 2),
        (hypercube(3), 1),
        (hypercube(4), 2),
        (complete_minus_edge(4), 1),
        (cartesian(complete(4), cycle(3)).graph, 2),
        (complete(24), 12),
        (complete(30), 15),
        (hypercube(7), 3),
        (cartesian(complete(6), cycle(20)).graph, 3),
    ]
    for g, want in cases:
        result = max_packing(g)
        assert result.sigma == want
        assert len(result.packing.trees) == want
        assert result.packing.method == "oracle"
        assert verify_packing(g, result.packing).overall
        assert result.certificate.bound == want


def test_max_packing_rejects_bad_input():
    with pytest.raises(InputError):
        max_packing(path(1))
    with pytest.raises(InputError):
        max_packing(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_too_few_edges_rejected_before_allocating():
    # m < n - 1 cannot be connected: no O(n) component search is needed
    g = read_graph("p 200000 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="disconnected"):
            max_packing(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tree_certificate_is_all_singletons():
    result = max_packing(path(4))
    assert result.certificate.partition == ((0,), (1,), (2,), (3,))
    assert result.certificate.crossing_count == 3
    assert result.certificate.bound == 1


def test_certificate_structure():
    for g in (complete(5), cycle(6), cartesian(path(3), path(3)).graph):
        cert = max_packing(g).certificate
        flat = [v for b in cert.partition for v in b]
        assert sorted(flat) == list(range(g.n))      # disjoint cover
        assert len(cert.partition) >= 2
        block_of = {v: i for i, b in enumerate(cert.partition) for v in b}
        crossing = sum(1 for a, b in g.edges if block_of[a] != block_of[b])
        assert crossing == cert.crossing_count
        assert cert.bound == crossing // (len(cert.partition) - 1)


def test_tutte_bruteforce_known_values():
    assert tutte_bruteforce(path(2)).bound == 1
    assert tutte_bruteforce(cycle(5)).bound == 1
    assert tutte_bruteforce(complete(4)).bound == 2
    assert tutte_bruteforce(complete_multipartite(3, 2)).bound == 2


def test_tutte_bruteforce_limits():
    with pytest.raises(SizeError):
        tutte_bruteforce(complete(13))
    with pytest.raises(InputError):
        tutte_bruteforce(path(1))


def test_bruteforce_partition_well_formed():
    cert = tutte_bruteforce(cycle(4))
    flat = sorted(v for b in cert.partition for v in b)
    assert flat == [0, 1, 2, 3]
    assert len(cert.partition) >= 2


def test_oracle_matches_bruteforce_random():
    rng = random.Random(4242)
    for _ in range(60):
        g = random_connected(rng, rng.randint(3, 8))
        result = max_packing(g)
        assert result.sigma == tutte_bruteforce(g).bound
        assert verify_packing(g, result.packing).overall


def test_sigma_respects_edge_bound_and_half_n():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 9))
        sigma = max_packing(g).sigma
        assert sigma <= edge_bound(g)
        assert sigma <= max(1, g.n // 2)


def test_adding_edges_never_hurts():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(4, 8)
        g = random_connected(rng, n)
        edges = set(g.edges)
        missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                   if (a, b) not in edges]
        if not missing:
            continue
        extra = rng.choice(missing)
        g2 = Graph.from_edges(n, list(g.edges) + [extra])
        assert max_packing(g2).sigma >= max_packing(g).sigma


def test_oracle_deterministic():
    g = cartesian(complete(4), complete(4)).graph
    a = max_packing(g)
    b = max_packing(g)
    assert a.packing.trees == b.packing.trees
    assert a.certificate == b.certificate


@st.composite
def connected_graphs(draw) -> Graph:
    n = draw(st.integers(2, 9))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, sorted(set(tree) | set(extra)))


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_oracle_certificate_and_packing_property(g):
    result = max_packing(g)
    assert result.sigma == tutte_bruteforce(g).bound
    cert = result.certificate
    block_of = {v: i for i, b in enumerate(cert.partition) for v in b}
    crossing = sum(1 for a, b in g.edges if block_of[a] != block_of[b])
    assert crossing // (len(cert.partition) - 1) == result.sigma
    assert verify_packing(g, result.packing).overall


ORACLE_CORPUS = Path(__file__).parent / "golden" / "oracle_corpus.json"


def oracle_corpus() -> dict[str, Graph]:
    """Q1-Q8, K2-K20, the structured shapes of the oracle-sparse benchmark
    workload (built as `treepack product` labels them), three lexicographic
    products (many levels, long exchange chains), 100 seeded random
    connected graphs with n <= 40, 12 seeded sparse graphs of known sigma 1-4
    with 60 <= n <= 150 and 8 seeded dense graphs with 12 <= n <= 20."""
    graphs = {f"Q{d}": hypercube(d) for d in range(1, 9)}
    graphs.update({f"K{n}": complete(n) for n in range(2, 21)})
    for name, g, h in [
            ("K4xC6", complete(4), cycle(6)), ("K3xC20", complete(3), cycle(20)),
            ("K4xC12", complete(4), cycle(12)), ("K6xC20", complete(6), cycle(20)),
            ("K3(2)xC6", complete_multipartite(3, 2), cycle(6)),
            ("K3(2)xC10", complete_multipartite(3, 2), cycle(10)),
            ("K4(2)xC8", complete_multipartite(4, 2), cycle(8)),
            ("P30xP10", path(30), path(10)), ("P20xP20", path(20), path(20))]:
        graphs[name] = cartesian(g, h).graph       # Q4, Q6 and Q7 are above
    for name, g, h in [("C12oK6", cycle(12), complete(6)),   # sigma 8
                       ("K8oP6", complete(8), path(6)),      # sigma 22
                       ("K5oP3", complete(5), path(3))]:     # sigma 7
        graphs[name] = lexicographic(g, h).graph
    rng = random.Random(2013)
    for i in range(100):
        graphs[f"R{i}"] = random_connected(rng, rng.randint(2, 40))
    rng = random.Random(1965)
    for i in range(12):
        graphs[f"S{i}"] = sparse_packed(rng, rng.randint(60, 150), rng.randint(1, 4))
    for i in range(8):
        graphs[f"D{i}"] = dense_connected(rng, rng.randint(12, 20))
    return graphs


def sparse_packed(rng: random.Random, n: int, k: int) -> Graph:
    """k random edge-disjoint spanning trees plus fewer than n-1 random
    edges, so sigma is k: the shape of the oracle-sparse random inputs."""
    used: set = set()
    for _ in range(k):
        while True:
            order = rng.sample(range(n), n)
            tree = []
            for i in range(1, n):
                v = order[i]
                free = [(min(u, v), max(u, v)) for u in order[:i]
                        if (min(u, v), max(u, v)) not in used]
                if not free:
                    break
                tree.append(rng.choice(free))
            else:
                used.update(tree)
                break
    rest = [(a, b) for a in range(n) for b in range(a + 1, n)
            if (a, b) not in used]
    return Graph.from_edges(n, sorted(used | set(rng.sample(rest, rng.randrange(n - 1)))))


def dense_connected(rng: random.Random, n: int) -> Graph:
    """A random spanning tree plus each other pair with probability 0.5-0.95:
    the shape of the dense factors `pack` runs the oracle on."""
    keep = rng.uniform(0.5, 0.95)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges.update((a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < keep)
    return Graph.from_edges(n, sorted(edges))


def oracle_digest(g: Graph) -> str:
    """SHA-256 of the canonical JSON of sigma, the trees and the certificate."""
    result = max_packing(g)
    record = {"sigma": result.sigma, "trees": result.packing.trees,
              "certificate": result.certificate._asdict()}
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_oracle_corpus_outputs_pinned():
    # The pinned digests were written by the oracle before clump pruning and
    # smaller-side re-rooting (S* and D* before the search-free first level,
    # the newest-forest-first search and flat clump labels; the lexicographic
    # rows by the oracle whose labels still named the owning forest); any
    # change to a tree or certificate shows here.
    # Regenerate only for an intended output change:
    #   json.dumps({k: oracle_digest(g) for k, g in oracle_corpus().items()},
    #              indent=1)
    want = json.loads(ORACLE_CORPUS.read_text())
    got = {name: oracle_digest(g) for name, g in oracle_corpus().items()}
    assert got == want


def test_clump_pruning_changes_no_search_result(monkeypatch):
    # Each search runs a second time with the identity clump, which expands
    # every labelled edge; both must end at the same edge and give every edge
    # between two clumps the same predecessor.  A label's forest is owner[g],
    # the same in both searches, and the receiving forest is the newest.
    search = _ForestFamily.search
    pruned = []

    def both(self, e0, clump):
        f, label = search(self, e0, clump)
        f_all, label_all = search(self, e0, list(range(self.n)))
        assert f == f_all

        def between(lab):
            return {e: x for e, x in lab.items()
                    if _find(clump, e[0]) != _find(clump, e[1])}
        assert between(label) == between(label_all)
        pruned.append(len(label_all) - len(label))
        return f, label

    monkeypatch.setattr(_ForestFamily, "search", both)
    rng = random.Random(77)
    for _ in range(30):
        g = random_connected(rng, rng.randint(4, 24))
        max_packing(g)
    assert max(pruned) > 0          # some search left an edge unexpanded


def components(n: int, edges) -> list[int]:
    """A component label per vertex, by union-find over `edges`."""
    label = list(range(n))
    for a, b in edges:
        label[_find(label, a)] = _find(label, b)
    return [_find(label, v) for v in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32))
def test_older_forests_stay_spanning_trees(n, seed):
    # The search tests only the newest forest for room, which is exact only
    # if every older forest is a spanning tree after each augment; level 1
    # runs no search and must be the first-fit forest of the edge list.
    g = random_connected(random.Random(seed), n)
    first_fit, uf = [], list(range(n))
    for a, b in g.edges:
        ra, rb = _find(uf, a), _find(uf, b)
        if ra != rb:
            uf[ra] = rb
            first_fit.append((a, b))
    augment, add_forest = _ForestFamily.augment, _ForestFamily.add_forest
    seen = {"level 1": 0, "augments": 0}

    def forest(family, i):
        return sorted(e for e, j in family.owner.items() if j == i)

    def checked_add_forest(self):
        if len(self.adj) == 1:
            assert forest(self, 0) == first_fit
            seen["level 1"] += 1
        add_forest(self)

    def checked_augment(self, f, label):
        augment(self, f, label)
        assert len(self.adj) >= 2
        for j in range(len(self.adj) - 1):
            tree = forest(self, j)
            assert len(tree) == n - 1
            assert len(set(components(n, tree))) == 1
        seen["augments"] += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ForestFamily, "add_forest", checked_add_forest)
        mp.setattr(_ForestFamily, "augment", checked_augment)
        max_packing(g)
    assert seen["level 1"] == 1
    assert seen["augments"] > 0 or g.m == n - 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_forest_bookkeeping_invariants(data):
    # A wrong vertex count at a root only makes inserts re-root the larger
    # tree, which changes no output, so only this test would see it.
    n = data.draw(st.integers(2, 9))
    k = 2
    moves = data.draw(st.lists(st.tuples(st.integers(0, k - 1),
                                         st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=40))
    family = _ForestFamily(n)
    forests: list[set] = []
    for _ in range(k):
        family.add_forest()
        forests.append(set())
    for i, a, b in moves:
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        comp = components(n, forests[i])
        if e in forests[i]:
            assert family.remove(e) == i
            forests[i].discard(e)
        elif e in family.owner:
            continue
        elif comp[a] == comp[b]:
            with pytest.raises(ConstructionError):
                family.insert(e, i)
        else:
            family.insert(e, i)
            forests[i].add(e)
        for j in range(k):
            comp = components(n, forests[j])
            parent, depth, span = family.parent[j], family.depth[j], family.span[j]
            roots = [v for v in range(n) if parent[v] < 0]
            assert sorted(comp[r] for r in roots) == sorted(set(comp))
            for r in roots:
                assert depth[r] == 0
                assert span[r] == comp.count(comp[r])
            for v in range(n):
                if parent[v] >= 0:
                    assert (min(v, parent[v]), max(v, parent[v])) in forests[j]
                    assert depth[v] == depth[parent[v]] + 1
            for x in range(n):
                for y in range(x + 1, n):
                    assert (family.path_in(j, x, y) is None) == (comp[x] != comp[y])
