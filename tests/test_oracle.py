import hashlib
import importlib.util
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepack import oracle
from treepack.catalogue import (complete, complete_minus_edge,
                                complete_multipartite, cycle, hypercube, path)
from treepack.core import (ConstructionError, Graph, InputError, SizeError,
                           read_graph)
from treepack.oracle import _ForestFamily, max_packing
from treepack.products import cartesian, lexicographic
from treepack.verify import verify_packing

from reference import (components, connected_graphs, graph, random_connected,
                       random_tree, reference_search, tutte_bruteforce)


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
        max_packing(graph(4, [(0, 1), (2, 3)]))


def test_corrupt_witness_raises_construction_error(monkeypatch):
    """max_packing ends in verified_packing: forests that share an edge are
    an internal bug, raised, never a returned packing."""
    verified = oracle.verified_packing

    def repeat_an_edge(host, trees, method, expected):
        if len(trees) > 1:   # forest 1 swaps its first edge for forest 0's
            trees[1] = trees[0][:1] + trees[1][1:]
        return verified(host, trees, method, expected)

    monkeypatch.setattr(oracle, "verified_packing", repeat_an_edge)
    with pytest.raises(ConstructionError) as exc:
        max_packing(complete(4))
    lines = str(exc.value).splitlines()
    assert lines[0] == "internal: constructed packing invalid"
    assert any(line.startswith("  FAIL trees pairwise edge-disjoint")
               for line in lines)


def test_certificate_bound_is_the_tree_count_verified(monkeypatch):
    """sigma = bound is checked once, by verified_packing's tree count: a
    certificate one above sigma is an internal bug, raised."""
    certify = oracle._terminal_certificate

    def one_too_high(g, members, clump):
        cert = certify(g, members, clump)
        return cert._replace(bound=cert.bound + 1)

    monkeypatch.setattr(oracle, "_terminal_certificate", one_too_high)
    with pytest.raises(ConstructionError, match="built 2 trees, expected 3"):
        max_packing(complete(4))


def test_one_block_certificate_raises():
    g = complete(4)
    with pytest.raises(ConstructionError, match="degenerate certificate partition"):
        oracle._terminal_certificate(g, [list(range(g.n))], [0] * g.n)


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
        g2 = graph(n, [*g.edges, extra])
        assert max_packing(g2).sigma >= max_packing(g).sigma


def test_oracle_deterministic():
    g = cartesian(complete(4), complete(4)).graph
    a = max_packing(g)
    b = max_packing(g)
    assert a.packing.trees == b.packing.trees
    assert a.certificate == b.certificate


@settings(max_examples=100, deadline=None)
@given(connected_graphs(2, 9))
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
    products (many levels, long exchange chains), four long thin graphs
    whose forests are hundreds of vertices deep (P2000, C2000, P300xP2 and
    C600^2, the square of C600), 100 seeded random connected graphs with
    n <= 40, 12 seeded sparse graphs of known sigma 1-4 with 60 <= n <= 150
    and 8 seeded dense graphs with 12 <= n <= 20."""
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
    square = [(i, (i + d) % 600) for i in range(600) for d in (1, 2)]
    graphs.update({"P2000": path(2000), "C2000": cycle(2000),
                   "P300xP2": cartesian(path(300), path(2)).graph,
                   "C600^2": graph(600, square)})        # sigma 2
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
    return graph(n, used | set(rng.sample(rest, rng.randrange(n - 1))))


def dense_connected(rng: random.Random, n: int) -> Graph:
    """A random spanning tree plus each other pair with probability 0.5-0.95:
    the shape of the dense factors `pack` runs the oracle on."""
    keep = rng.uniform(0.5, 0.95)
    edges = set(random_tree(rng, n))
    edges.update((a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < keep)
    return graph(n, edges)


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
    # rows by the oracle whose labels still named the owning forest; the four
    # long thin rows by the oracle that walked parent pointers to find a
    # vertex's root); any change to a tree or certificate shows here.
    # Regenerate only for an intended output change:
    #   json.dumps({k: oracle_digest(g) for k, g in oracle_corpus().items()},
    #              indent=1)
    want = json.loads(ORACLE_CORPUS.read_text())
    got = {name: oracle_digest(g) for name, g in oracle_corpus().items()}
    assert got == want


def test_oracle_scale_child_digest_is_oracle_digest():
    # tools/oracle_scale.py calls two checkouts' outputs the same when its
    # children's digests agree, so its child must hash as oracle_digest does
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "oracle_scale", root / "tools" / "oracle_scale.py")
    oracle_scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle_scale)
    record = oracle_scale.run_once(root, "hypercube(4)")
    assert (record["sigma"], record["digest"]) == (2, oracle_digest(hypercube(4)))


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
            return {e: x for e, x in lab.items() if clump[e[0]] != clump[e[1]]}
        assert between(label) == between(label_all)
        pruned.append(len(label_all) - len(label))
        return f, label

    monkeypatch.setattr(_ForestFamily, "search", both)
    rng = random.Random(77)
    for _ in range(30):
        g = random_connected(rng, rng.randint(4, 24))
        max_packing(g)
    assert max(pruned) > 0          # some search left an edge unexpanded


class CountedClump(list):
    """A clump list that counts its reads and fails past `budget` of them."""

    def __init__(self, clump: list[int], budget: int):
        super().__init__(clump)
        self.reads, self.budget = 0, budget

    def __getitem__(self, v):
        self.reads += 1
        assert self.reads <= self.budget, "a search labelled more than m edges"
        return super().__getitem__(v)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32))
def test_search_matches_reference_search(n, seed):
    # Every search ends at the same edge as the full-path reference and makes
    # the same labels in the same order.  A search reads both ends' clumps once
    # per label it writes, so the read count says no edge was labelled twice;
    # the budget turns a search that relabels without end into a failure.
    g = random_connected(random.Random(seed), n)
    search = _ForestFamily.search
    seen = {"searches": 0}

    def checked(self, e0, clump):
        want_f, want_label = reference_search(self, e0, clump)
        counted = CountedClump(clump, 2 * g.m)
        f, label = search(self, e0, counted)
        assert f == want_f
        assert list(label.items()) == list(want_label.items())
        assert counted.reads == 2 * (len(label) - 1)
        seen["searches"] += 1
        return f, label

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ForestFamily, "search", checked)
        max_packing(g)
    assert seen["searches"] > 0 or g.m == n - 1


def component_labels(n: int, edges) -> list[int]:
    """A component label per vertex: the smallest vertex of its component."""
    label = {v: block[0] for block in components(n, edges) for v in block}
    return [label[v] for v in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32))
def test_older_forests_stay_spanning_trees(n, seed):
    # The search tests only the newest forest for room, which is exact only
    # if every older forest is a spanning tree after each augment; level 1
    # runs no search and must be the first-fit forest of the edge list.
    g = random_connected(random.Random(seed), n)
    first_fit, label = [], list(range(n))
    for a, b in g.edges:           # an edge joins two labels, which merge
        if label[a] != label[b]:
            old, new = label[a], label[b]
            label = [new if x == old else x for x in label]
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
            assert len(components(n, tree)) == 1
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
        comp = component_labels(n, forests[i])
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
            comp = component_labels(n, forests[j])
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
                top = v
                while parent[top] >= 0:
                    top = parent[top]
                assert family.root[j][v] == top
            for x in range(n):
                for y in range(x + 1, n):
                    assert (family.root[j][x] == family.root[j][y]) == (comp[x] == comp[y])
