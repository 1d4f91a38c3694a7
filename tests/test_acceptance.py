"""Acceptance checks, one pass/fail line per criterion (run with -s to see them)."""

import itertools
import random
import time

from treepack import (
    cartesian_bound,
    complete,
    complete_minus_edge,
    complete_multipartite,
    cycle,
    hypercube,
    lex_plan,
    lexicographic,
    max_packing,
    pack_cartesian,
    pack_lex,
    path,
    proposition_value,
    verify_packing,
)
from treepack.cli import main as cli_main
from treepack.products import cartesian

from reference import graph, tutte_bruteforce, verify_proposition_row


def _report(num: int, desc: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


CORPUS = [
    ("P2", path(2)), ("P3", path(3)), ("P4", path(4)), ("P5", path(5)),
    ("C3", cycle(3)), ("C4", cycle(4)), ("C5", cycle(5)), ("C6", cycle(6)),
    ("K3", complete(3)), ("K4", complete(4)), ("K5", complete(5)),
    ("K6", complete(6)),
    ("K2(2)", complete_multipartite(2, 2)),
    ("K3(2)", complete_multipartite(3, 2)),
    ("Q3", hypercube(3)),
]

_FACTOR_ORACLE: dict[str, object] = {}


def _factor(name: str):
    if name not in _FACTOR_ORACLE:
        g = dict(CORPUS)[name]
        _FACTOR_ORACLE[name] = max_packing(g)
    return _FACTOR_ORACLE[name]


def test_criterion_1_cartesian_construction_on_corpus():
    def body():
        for (na, ga), (nb, hb) in itertools.product(CORPUS, repeat=2):
            assert ga.n * hb.n <= 64
            ra, rb = _factor(na), _factor(nb)
            t0 = time.perf_counter()
            packing = pack_cartesian(ga, hb, ra.packing, rb.packing)
            expected = ra.sigma + rb.sigma - 1
            assert len(packing.trees) == expected, (na, nb)
            assert verify_packing(packing.host, packing).overall, (na, nb)
            assert time.perf_counter() - t0 < 1.0, (na, nb)

    _report(1, "cartesian construction gives sigma(G)+sigma(H)-1 verified "
               "trees on all 225 corpus pairs", body)


def test_criterion_2_tight_cartesian_cases():
    def body():
        tight = [
            (path(3), path(3), 1),
            (path(4), path(4), 1),
            (path(5), path(5), 1),
            (complete(4), cycle(3), 2),
            (complete(4), cycle(4), 2),
            (complete(4), cycle(5), 2),
            (complete(4), complete(4), 3),
            (complete(4), complete(6), 4),
        ]
        for g, h, expected in tight:
            product = cartesian(g, h)
            assert max_packing(product.graph).sigma == expected
            bound = cartesian_bound(max_packing(g).sigma, max_packing(h).sigma)
            assert bound == expected

        # dimension-4 hypercube as Q3 x P2: the closed form 4//2 = 2 holds,
        # while the product construction only reaches 1+1-1 = 1 tree
        q4 = cartesian(hypercube(3), path(2))
        assert max_packing(q4.graph).sigma == 2
        assert proposition_value(3, (4,)) == 2
        assert cartesian_bound(1, 1) == 1

    _report(2, "oracle matches the closed-form value on the tight "
               "cartesian cases", body)


def test_criterion_3_loose_bound_flagged(capsys):
    def body():
        product = cartesian(complete(5), cycle(4))
        assert max_packing(product.graph).sigma == 3
        k = max_packing(complete(5)).sigma
        ell = max_packing(cycle(4)).sigma
        assert cartesian_bound(k, ell) == 2

        code = cli_main(["table"])
        out = capsys.readouterr().out
        assert code == 0
        row = next(l for l in out.splitlines() if l.startswith("K5 x C4"))
        assert "bound<sigma" in row

    _report(3, "table flags K5 x C4 where the construction bound 2 falls "
               "below sigma 3", body)


def test_criterion_4_lex_tight_case():
    def body():
        g, h = path(3), complete(4)
        packing = pack_lex(g, h, max_packing(g).packing, max_packing(h).packing)
        assert len(packing.trees) == 4
        assert verify_packing(packing.host, packing).overall
        assert max_packing(packing.host).sigma == 4

    _report(4, "lex construction on P3 o K4 returns 4 verified trees and "
               "the oracle confirms sigma=4", body)


def test_criterion_5_lex_small_and_unbalanced_cases():
    def body():
        # balanced: K2 o K2 is K4
        g = h = path(2)
        packing = pack_lex(g, h, max_packing(g).packing, max_packing(h).packing)
        assert len(packing.trees) == 2
        assert verify_packing(packing.host, packing).overall
        assert max_packing(complete(4)).sigma == 2

        # tree-rich first factor: K5 o P3, formula value 4, oracle may exceed it
        g, h = complete(5), path(3)
        value = lex_plan(max_packing(g).sigma, max_packing(h).sigma,
                         g.n, h.n).tree_count
        assert value == 4
        packing = pack_lex(g, h, max_packing(g).packing, max_packing(h).packing)
        assert len(packing.trees) == 4
        assert verify_packing(packing.host, packing).overall
        sigma = max_packing(packing.host).sigma
        assert sigma >= 4

        # the published worked example for this regime assumed
        # sigma(K4 minus an edge) = 2, which the edge bound 5//3 = 1 forbids
        assert max_packing(complete_minus_edge(4)).sigma == 1

    _report(5, "lex construction verified on K2 o K2 and K5 o P3; "
               "sigma(K4 minus an edge) is 1, not 2", body)


def _check_cycle(edges, vertices):
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    assert all(len(nbrs) == 2 for nbrs in adj.values())
    seen = {min(vertices)}
    queue = [min(vertices)]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    assert seen == set(vertices)


def test_criterion_6_bundle_cycle_decomposition():
    def body():
        for r in (2, 4, 6, 8, 10, 12):
            product = lexicographic(path(2), path(r))
            bundle = {(x, y) for x in range(r) for y in range(r, 2 * r)}
            vertices = tuple(range(2 * r))
            cycles = [product.matching_copy([(0, 1)], 2 * j - 1)
                      + product.matching_copy([(0, 1)], 2 * j)
                      for j in range(1, r // 2 + 1)]
            used: set = set()
            for cyc in cycles:
                assert len(cyc) == 2 * r
                _check_cycle(cyc, vertices)
                assert used.isdisjoint(cyc)
                used.update(cyc)
            assert used == bundle <= set(product.graph.edges)
            assert len(used) == r * r

        for r in (3, 5, 7):
            product = lexicographic(path(2), path(r))
            bundle = {(x, y) for x in range(r) for y in range(r, 2 * r)}
            vertices = tuple(range(2 * r))
            used = set()
            for j in range(1, (r - 1) // 2 + 1):
                cyc = (product.matching_copy([(0, 1)], 2 * j - 1)
                       + product.matching_copy([(0, 1)], 2 * j))
                _check_cycle(cyc, vertices)
                assert used.isdisjoint(cyc)
                used.update(cyc)
            matching = product.matching_copy([(0, 1)], r)
            assert len(matching) == r
            touched = [v for e in matching for v in e]
            assert sorted(touched) == sorted(vertices)
            assert used.isdisjoint(matching)
            used.update(matching)
            assert used == bundle <= set(product.graph.edges)

    _report(6, "bundle matchings pair into edge-disjoint Hamiltonian cycles "
               "covering all r^2 edges (plus one matching for odd r)", body)


def test_criterion_7_oracle_against_bruteforce():
    def body():
        rng = random.Random(882412)
        t0 = time.perf_counter()
        for _ in range(200):
            n = rng.randint(3, 8)
            order = list(range(n))
            rng.shuffle(order)
            edges = {tuple(sorted((order[i], order[rng.randrange(i)])))
                     for i in range(1, n)}
            extra = min(rng.randint(0, n), n * (n - 1) // 2 - len(edges))
            while extra > 0:
                a, b = rng.sample(range(n), 2)
                e = (min(a, b), max(a, b))
                if e not in edges:
                    edges.add(e)
                    extra -= 1
            g = graph(n, edges)
            result = max_packing(g)
            assert result.sigma == tutte_bruteforce(g).bound
            assert verify_packing(g, result.packing).overall
        assert time.perf_counter() - t0 < 30.0

    _report(7, "oracle sigma equals the brute-force partition bound on 200 "
               "random connected graphs", body)


def test_criterion_8_closed_form_table():
    def body():
        rows = [
            (1, (4, 3)), (1, (4, 4)), (1, (4, 5)),
            (2, (4, 4)), (2, (4, 6)),
            (3, (4,)),
            (7, (3, 2)),
            (4, (2, 2, 3)),
        ]
        for row, params in rows:
            report = verify_proposition_row(row, params)
            assert report.overall, (row, params)
        assert proposition_value(7, (3, 2)) == 2
        assert proposition_value(4, (2, 2, 3)) == 2

    _report(8, "catalogued closed-form packing numbers match the oracle",
            body)
