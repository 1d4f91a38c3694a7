import ast
import itertools
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import treepack
from treepack.cartesian import cartesian_bound, pack_cartesian
from treepack.catalogue import complete, cycle, path, proposition_value
from treepack.core import (ConstructionError, ContractError, Graph, SizeError,
                           TreePacking)
from treepack.lex import lex_plan, pack_lex
from treepack.oracle import max_packing
from treepack.products import cartesian
from treepack.verify import (_checks, check_packing, verified_packing,
                             verify_packing)

from reference import (MUTATIONS, as_tree, components, mutate, mutated_packings,
                       packings, proposition_graph, reference_checks,
                       verify_proposition_row)


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


def test_check_packing_refuses_at_its_first_failure_in_bounded_memory():
    # the checks stop at tree 0: no report of 800,001 checks is built first
    k4 = complete(4)
    packing = TreePacking(k4, ((),) * 200_000)
    tracemalloc.start()
    try:
        with pytest.raises(ContractError) as exc:
            check_packing(packing, k4, "first factor packing")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == \
        "first factor packing: tree 0: edge count is n-1 fails: 0 != 3"
    assert peak < 1_000_000


@settings(max_examples=300, deadline=None)
@given(mutated_packings(1, 7))
def test_check_packing_agrees_with_the_report(case):
    """check_packing refuses exactly the packings verify_packing fails, and no
    trees at all, and names the report's first failing check."""
    host, trees = case
    packing = TreePacking(host, trees)
    report = verify_packing(host, packing)
    first = next((c for c in report.checks if not c.passed), None)
    if first is None and trees:
        assert report.overall
        check_packing(packing, host, "role")   # no raise
        return
    with pytest.raises(ContractError) as exc:
        check_packing(packing, host, "role")
    assert str(exc.value) == (f"role: {first.name} fails: {first.witness}" if first
                              else "role: packing must contain at least one tree")


@settings(max_examples=300, deadline=None)
@given(mutated_packings(1, 7))
@example((complete(4), (((0, 1), (1, 2), (2, 3)),                 # two trees
                        ((0, 2), (0, 3), (2, 3)))))               # share (2, 3)
@example((complete(4), (((0, 1), (0, 1), (1, 2), (2, 3)),)))       # own repeat
@example((cycle(4), (((0, 1), (1, 2), (2, 3)), ((0, 3), (2, 3)),  # shared, then
                     ((0, 2), (0, 3)))))                          # (0, 2) stray
@example((complete(1), ((), ())))                                 # K1, two empty
def test_drained_checks_match_the_reference(case):
    """Draining one host-edge set gives every check of the reference, with
    its name, verdict and witness, in the same order."""
    host, trees = case
    assert list(_checks(host, trees)) == list(reference_checks(host, trees))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=n + 1))))
def test_separated_witness_is_smallest_vertex_off_component_of_0(case):
    """Short, full and long trees alike name the smallest vertex that the
    whole tree leaves apart from 0, and none for a spanning tree."""
    n, pairs = case
    edges = sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]})
    report = _one_tree(complete(n), tuple(edges))
    spans = [c for c in report.checks if "connects" in c.name][0]
    block = next(c for c in components(n, edges) if 0 in c)
    want = next((v for v in range(n) if v not in block), None)
    assert spans.witness == (None if want is None
                             else f"vertex {want} separated from vertex 0")


def test_a_tree_with_a_cycle_names_the_vertex_it_leaves_out():
    # (1, 2) closes a cycle, and (2, 3) after it still joins 3 to 0: only 4
    # is apart from 0
    report = _one_tree(complete(5), ((0, 1), (0, 2), (1, 2), (2, 3)))
    assert {c.name: c.witness for c in report.checks if not c.passed} == {
        "tree 0: acyclic": "edge (1, 2) closes a cycle",
        "tree 0: spans and connects all vertices":
            "vertex 4 separated from vertex 0"}


def _read(pattern: str, witness: str) -> list:
    """The literals a witness string holds, in the pattern's groups."""
    return [ast.literal_eval(g) for g in re.fullmatch(pattern, witness).groups()]


def _joined(n: int, edges, a: int, b: int) -> bool:
    return any(a in c and b in c for c in components(n, edges))


@settings(max_examples=300, deadline=None)
@given(mutated_packings(1, 7))
def test_every_fail_witness_is_a_fact_about_its_input(case):
    """Each failed check's witness holds of the packing, recomputed from the
    edge lists by the reference components search."""
    host, trees = case
    n = host.n
    for c in verify_packing(host, TreePacking(host, trees)).checks:
        if c.passed:
            continue
        tag, _, what = c.name.partition(": ")
        t = trees[int(tag.removeprefix("tree "))] if what else ()
        if what == "edges belong to host":
            assert c.witness in t and c.witness not in host.edges
        elif what == "edge count is n-1":
            assert c.witness == f"{len(t)} != {n - 1}"
        elif what == "vertices in range 0..n-1":
            (e,) = _read(r"edge (.+) has a vertex outside 0\.\.-?\d+", c.witness)
            assert e in t and not all(0 <= v < n for v in e)
        elif what == "acyclic":
            # the first edge whose ends the edges before it already join
            (e,) = _read(r"edge (.+) closes a cycle", c.witness)
            assert e == next(f for i, f in enumerate(t) if _joined(n, t[:i], *f))
        elif what == "spans and connects all vertices":
            (v,) = _read(r"vertex (\d+) separated from vertex 0", c.witness)
            assert not _joined(n, t, 0, v)
        elif c.name == "trees pairwise edge-disjoint":
            e, i, j = _read(r"edge (.+) in trees (\d+) and (\d+)", c.witness)
            assert i != j and e in trees[i] and e in trees[j]
        else:
            assert c.name == ONE_VERTEX
            assert n == 1 and c.witness == f"{len(trees)} trees"


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
    assert defined == [("reference.py", name) for name in (
        "random_tree", "random_connected", "connected_graphs", "packings",
        "mutated_packings")]


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


_PINNED = {"_drop": "drop an edge", "_swap_for_non_host": "swap in a non-host pair",
           "_add_out_of_range": "add an out-of-range pair",
           "_copy_into_second_tree": "copy an edge into another tree",
           "_add_chord": "add a chord"}


@pytest.mark.parametrize("mutation", list(_PINNED.values()), ids=list(_PINNED))
@pytest.mark.parametrize("name", ["k4xc4", "p3lexk4", "k6"])
def test_verify_packing_single_mutation_fails_with_witness(name, mutation):
    """One named mutation of a catalogue packing fails its check, with a witness."""
    packing = _valid_packing(name)
    trees, i = mutate(packing.host, packing.trees, mutation, random.Random(0))
    assert i is not None
    report = verify_packing(packing.host, TreePacking(packing.host, trees))
    assert not report.overall
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert MUTATIONS[mutation].format(i) in failed and None not in failed.values()


@settings(max_examples=200, deadline=None)
@given(packings(1, 7), st.sampled_from([m for m in MUTATIONS if MUTATIONS[m]]),
       st.randoms())
def test_drawn_single_mutation_fails_with_witness(case, mutation, rng):
    """One named mutation of a drawn packing fails its check, with a witness."""
    host, trees = case
    trees, i = mutate(host, trees, mutation, rng)
    assume(i is not None)   # the tree it picked can take the mutation
    failed = {c.name: c.witness for c in verify_packing(
        host, TreePacking(host, trees)).checks if not c.passed}
    assert MUTATIONS[mutation].format(i) in failed and None not in failed.values()


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


K4_TWO_TREES = (complete(4), (((0, 1), (1, 2), (2, 3)), ((0, 2), (0, 3), (1, 3))))


@settings(max_examples=60, deadline=None)
@given(packings(2, 6), packings(2, 6))
@example(K4_TWO_TREES, K4_TWO_TREES)                              # lex balanced
@example((path(3), (((0, 1), (1, 2)),)), K4_TWO_TREES)            # lex h_rich
@example(K4_TWO_TREES, (cycle(4), (((0, 1), (1, 2), (2, 3)),)))   # lex g_rich
def test_constructions_meet_bound_and_verify(first, second):
    """Both constructions on drawn factor packings: the promised tree count, a
    passing verify_packing, and never more trees than the product's sigma."""
    (g, trees_g), (h, trees_h) = first, second
    k, ell = len(trees_g), len(trees_h)
    pack_g, pack_h = TreePacking(g, trees_g), TreePacking(h, trees_h)
    for kind, pack, bound in (
            ("cartesian", pack_cartesian, cartesian_bound(k, ell)),
            ("lex", pack_lex, lex_plan(k, ell, g.n, h.n).tree_count)):
        out = pack(g, h, pack_g, pack_h)
        assert len(out.trees) == bound, kind
        assert verify_packing(out.host, out).overall, kind
        assert out.host.n <= 36
        assert len(out.trees) <= max_packing(out.host).sigma, kind
