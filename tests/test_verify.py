import ast
import itertools
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treepack
from treepack.cartesian import cartesian_bound, pack_cartesian
from treepack.catalogue import complete, cycle, path, proposition_value
from treepack.core import ConstructionError, Graph, SizeError, TreePacking
from treepack.lex import lex_plan, pack_lex
from treepack.oracle import max_packing
from treepack.products import cartesian
from treepack.verify import verified_packing, verify_packing

from reference import (as_tree, components, connected_graphs,
                       proposition_graph, verify_proposition_row)


def _one_tree(host: Graph, t: tuple):
    return verify_packing(host, TreePacking(host, (t,)))


def test_verify_tree_passes_on_spanning_tree():
    c4 = cycle(4)
    t = as_tree([(0, 1), (1, 2), (2, 3)])
    report = _one_tree(c4, t)
    assert report.overall
    assert all(c.passed for c in report.checks)


def test_verify_tree_fails_on_cycle_with_witness():
    c4 = cycle(4)
    report = _one_tree(c4, c4.edges)
    assert not report.overall
    names = {c.name: c for c in report.checks}
    count = names["tree 0: edge count is n-1"]
    assert not count.passed and "4 != 3" in str(count.witness)
    acyc = names["tree 0: acyclic"]
    assert not acyc.passed and "closes a cycle" in str(acyc.witness)


def test_verify_tree_fails_on_disconnected_with_witness():
    host = complete(4)
    two = as_tree([(0, 1), (2, 3)])
    report = _one_tree(host, two)
    assert not report.overall
    spanning = [c for c in report.checks if "connects" in c.name][0]
    assert not spanning.passed
    assert spanning.witness == "vertex 2 separated from vertex 0"


def test_verify_tree_flags_foreign_edges():
    p3 = path(3)
    stray = as_tree([(0, 2), (0, 1)])   # (0,2) is not a path edge
    report = _one_tree(p3, stray)
    member = [c for c in report.checks if "belong" in c.name][0]
    assert not member.passed and member.witness == (0, 2)


@pytest.mark.parametrize("bad", [(2, 9), (-1, 2)])
def test_verify_flags_out_of_range_vertices(bad):
    k4 = complete(4)
    report = _one_tree(k4, ((0, 1), bad))
    assert not report.overall
    rng = [c for c in report.checks if "range" in c.name][0]
    assert not rng.passed and str(bad) in rng.witness


def test_empty_trees_on_a_huge_host_verify_in_bounded_memory():
    # a tree short of n-1 edges costs O(its edges), not O(n)
    host = Graph(2_000_001, ())
    packing = TreePacking(host, ((),) * 30)
    tracemalloc.start()
    try:
        report = verify_packing(host, packing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert failed == {
        **{f"tree {i}: edge count is n-1": "0 != 2000000" for i in range(30)},
        **{f"tree {i}: spans and connects all vertices":
           "vertex 1 separated from vertex 0" for i in range(30)}}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=n + 1))))
def test_separated_witness_is_smallest_vertex_off_component_of_0(case):
    """Short, full and long trees alike name the smallest vertex that is not
    joined to 0, once the edges up to the first cycle are merged."""
    n, pairs = case
    edges = sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]})
    host = complete(n)
    report = _one_tree(host, tuple(edges))
    spans = [c for c in report.checks if "connects" in c.name][0]
    kept = []   # the edges the union-find merged before the cycle, if any
    for e in edges:
        if any(len(c) > 1 and set(e) <= set(c) for c in components(n, kept)):
            break
        kept.append(e)
    block = next(c for c in components(n, kept) if 0 in c)
    want = next((v for v in range(n) if v not in block), None)
    if len(edges) == n - 1 and len(kept) == len(edges):
        want = None   # a spanning tree: nothing is scanned
    assert spans.witness == (None if want is None
                             else f"vertex {want} separated from vertex 0")


def test_verify_packing_accepts_oracle_output():
    g = complete(4)
    result = max_packing(g)
    report = verify_packing(g, result.packing)
    assert report.overall
    assert len(result.packing.trees) == 2


def test_verified_packing_is_the_construction_exit_check():
    g = complete(4)
    trees = list(max_packing(g).packing.trees)
    with pytest.raises(ConstructionError) as exc:
        verified_packing(g, trees, "constructed-test", 3)
    assert str(exc.value) == "internal: built 2 trees, expected 3"
    shared = [trees[0], trees[0]]
    report = verify_packing(g, TreePacking(g, tuple(shared), "constructed-test"))
    assert report.render().startswith("FAIL")
    with pytest.raises(ConstructionError) as exc:
        verified_packing(g, shared, "constructed-test", 2)
    assert str(exc.value) == ("internal: constructed packing invalid\n"
                              + report.render())
    assert verified_packing(g, trees, "constructed-test", 2) == \
        TreePacking(g, tuple(trees), "constructed-test")
    # a construction hands over edge lists in any order; they are sorted
    # into the packing's tuples
    shuffled = [list(reversed(t)) for t in trees]
    assert verified_packing(g, shuffled, "constructed-test", 2) == \
        TreePacking(g, tuple(trees), "constructed-test")
    # sorting does not orient: a (max, min) edge is still not a host edge
    a, b = trees[0][1]
    flipped = [[(b, a)] + list(trees[0][:1] + trees[0][2:]), list(trees[1])]
    with pytest.raises(ConstructionError) as exc:
        verified_packing(g, flipped, "constructed-test", 2)
    assert f"  FAIL tree 0: edges belong to host  [{(b, a)}]" in \
        str(exc.value).splitlines()


def test_only_verify_builds_a_tree_packing():
    """Every packing in src/ is made in verify.py: a built one by
    verified_packing, a read one by _load_packing."""
    calls = []
    for path in sorted(Path(treepack.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "TreePacking" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(path.name)
    assert calls == ["verify.py", "verify.py"]


def test_only_reference_draws_random_graphs():
    """Every random tree, random connected graph and Hypothesis strategy of
    graphs the tests draw from is defined once, in tests/reference.py; the
    command-line strategies of test_cli.py name no Graph."""
    defined = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            composite = any("composite" in (getattr(d, "id", None),
                                            getattr(d, "attr", None))
                            for d in node.decorator_list)
            graphs = any(getattr(n, "id", None) == "Graph" for n in ast.walk(node))
            if node.name in ("random_tree", "random_connected") or composite and graphs:
                defined.append((path.name, node.name))
    assert defined == [("reference.py", "random_tree"),
                       ("reference.py", "random_connected"),
                       ("reference.py", "connected_graphs")]


def test_verify_packing_mutations_fail():
    g = cartesian(complete(4), complete(4)).graph
    packing = max_packing(g).packing
    trees = [list(t) for t in packing.trees]

    # drop an edge from one tree
    broken = [list(t) for t in trees]
    broken[0] = broken[0][:-1]
    rep = verify_packing(g, _mk(g, broken))
    assert not rep.overall

    # duplicate a tree
    rep = verify_packing(g, _mk(g, [trees[0], trees[0]]))
    assert not rep.overall
    shared = [c for c in rep.checks if "disjoint" in c.name][0]
    assert not shared.passed and "in trees 0 and 1" in str(shared.witness)

    # tree 1 claims an edge tree 0 already owns
    stolen = [list(t) for t in trees]
    stolen[1][0] = stolen[0][0]
    rep = verify_packing(g, _mk(g, stolen))
    assert not rep.overall
    shared = [c for c in rep.checks if "disjoint" in c.name][0]
    assert not shared.passed

    # duplicate an edge inside one tree: its second copy closes a cycle
    doubled = [list(t) for t in trees]
    doubled[0][-1] = doubled[0][0]
    rep = verify_packing(g, _mk(g, doubled))
    assert not rep.overall
    acyc = [c for c in rep.checks if c.name == "tree 0: acyclic"][0]
    assert not acyc.passed and "closes a cycle" in str(acyc.witness)
    # and shares no edge with another tree
    shared = [c for c in rep.checks if "disjoint" in c.name][0]
    assert shared.passed and shared.witness is None


def _mk(g, edge_lists):
    return TreePacking(g, tuple(tuple(sorted(e)) for e in edge_lists))


def _valid_packing(name):
    if name == "k4xc4":
        g, h = complete(4), cycle(4)
        return pack_cartesian(g, h, max_packing(g).packing, max_packing(h).packing)
    if name == "p3lexk4":
        g, h = path(3), complete(4)
        return pack_lex(g, h, max_packing(g).packing, max_packing(h).packing)
    return max_packing(complete(6)).packing


def _drop(host, trees):
    trees[0].pop()
    return "tree 0: edge count is n-1"


def _swap_for_non_host(host, trees):
    n, edges = host.n, set(host.edges)
    # K6 has no missing pair, so a self-loop stands in as its non-host edge
    trees[0][0] = next(((a, b) for a in range(n) for b in range(a + 1, n)
                        if (a, b) not in edges), (0, 0))
    return "tree 0: edges belong to host"


def _add_out_of_range(host, trees):
    trees[0].append((0, host.n))
    return "tree 0: vertices in range 0..n-1"


def _copy_into_second_tree(host, trees):
    trees[1].append(trees[0][0])
    return "trees pairwise edge-disjoint"


def _add_chord(host, trees):
    trees[0].append(next(e for e in host.edges if e not in trees[0]))
    return "tree 0: acyclic"


@pytest.mark.parametrize("mutate", [_drop, _swap_for_non_host, _add_out_of_range,
                                    _copy_into_second_tree, _add_chord])
@pytest.mark.parametrize("name", ["k4xc4", "p3lexk4", "k6"])
def test_verify_packing_single_mutation_fails_with_witness(name, mutate):
    packing = _valid_packing(name)
    host = packing.host
    trees = [list(t) for t in packing.trees]
    expected = mutate(host, trees)
    report = verify_packing(host, _mk(host, trees))
    assert not report.overall
    failed = {c.name: c for c in report.checks if not c.passed}
    assert expected in failed
    assert all(c.witness is not None for c in failed.values())


ONE_VERTEX = "a one-vertex host has one spanning tree (the empty one)"


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_one_vertex_host_admits_at_most_one_tree(count):
    # every empty tree spans K1, so only the tree count can fail
    k1 = path(1)
    report = verify_packing(k1, TreePacking(k1, ((),) * count))
    names = {c.name: c for c in report.checks}
    assert report.overall is (count <= 1)
    assert names[ONE_VERTEX].witness == (None if count <= 1 else f"{count} trees")
    assert [c.name for c in report.checks if not c.passed] == (
        [] if count <= 1 else [ONE_VERTEX])


@pytest.mark.parametrize("name", ["k4xc4", "p3lexk4", "k6"])
def test_verify_packing_record_matches_pinned(name):
    packing = _valid_packing(name)
    pinned = json.loads(
        (Path(__file__).parent / "golden" / "verify_records.json").read_text())
    assert verify_packing(packing.host, packing).to_record() == pinned[name]


def test_proposition_values():
    assert proposition_value(1, (4, 3)) == 2
    assert proposition_value(1, (5, 4)) == 3
    assert proposition_value(2, (4, 6)) == 4
    assert proposition_value(3, (4,)) == 2
    assert proposition_value(4, (2, 2, 3)) == 2
    assert proposition_value(5, (2, 2, 4)) == 2
    assert proposition_value(6, (2, 2, 2, 2)) == 2
    assert proposition_value(7, (3, 2)) == 2
    with pytest.raises(ValueError):
        proposition_value(2, (5, 4))
    with pytest.raises(ValueError):
        proposition_value(8, (1,))
    # outside their domains these forms disagree with the oracle, so they raise
    for row, params in [(7, (4, 1)), (7, (2, 1)), (7, (6, 1)), (3, (1,)),
                        (4, (2, 1, 1)), (4, (4, 1, 1))]:
        with pytest.raises(ValueError, match=f"row {row} requires"):
            proposition_value(row, params)


@pytest.mark.parametrize("row, arity", [(1, 2), (2, 2), (3, 1), (4, 3), (5, 3),
                                        (6, 4), (7, 2)])
def test_proposition_values_match_oracle_in_domain(row, arity):
    checked = 0
    for params in itertools.product(range(1, 7), repeat=arity):
        try:
            value = proposition_value(row, params)
            g = proposition_graph(row, params)
        except ValueError:   # outside the form's domain, or no such family
            continue
        if g.n > 24:
            continue
        assert max_packing(g).sigma == value, (row, params)
        checked += 1
    assert checked >= 3


def test_proposition_graphs_have_expected_sizes():
    assert proposition_graph(1, (4, 3)).n == 12
    assert proposition_graph(3, (4,)).n == 16
    assert proposition_graph(7, (3, 2)).n == 6
    assert proposition_graph(6, (2, 2, 2, 2)).n == 16


def test_verify_proposition_row_passes():
    for row, params in [(1, (4, 3)), (1, (5, 4)), (2, (4, 4)), (3, (4,)),
                        (4, (2, 2, 3)), (7, (3, 2))]:
        report = verify_proposition_row(row, params)
        assert report.overall, report.render()


def test_verify_proposition_row_size_guard():
    with pytest.raises(SizeError):
        verify_proposition_row(2, (9, 9))   # 81 vertices


def test_report_rendering():
    g = complete(4)
    report = verify_packing(g, max_packing(g).packing)
    text = report.render()
    assert text.startswith("PASS")
    record = report.to_record()
    assert record["overall"] is True
    assert all(c["passed"] for c in record["checks"])


@settings(max_examples=60, deadline=None)
@given(connected_graphs(2, 6), connected_graphs(2, 6))
def test_constructions_meet_bound_and_verify(g, h):
    """Both constructions on random factors: the promised tree count, a
    passing verify_packing, and never more trees than the product's sigma."""
    rg, rh = max_packing(g), max_packing(h)
    for kind, pack, bound in (
            ("cartesian", pack_cartesian, cartesian_bound(rg.sigma, rh.sigma)),
            ("lex", pack_lex, lex_plan(rg.sigma, rh.sigma, g.n, h.n).tree_count)):
        out = pack(g, h, rg.packing, rh.packing)
        assert len(out.trees) == bound, kind
        assert verify_packing(out.host, out).overall, kind
        assert out.host.n <= 36
        assert len(out.trees) <= max_packing(out.host).sigma, kind
