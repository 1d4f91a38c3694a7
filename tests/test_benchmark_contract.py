"""treepack against the benchmark in ``perfbench/``, which the tests only read:
its independent packing checker, and the spans its traced runs expect.

The benchmark's modules import their siblings by plain name, as its scripts
run them, so ``perfbench/`` is on ``sys.path`` while they load.
"""

import sys
from pathlib import Path

from hypothesis import example, given, settings

# with the imports below, every module is loaded: spans.install rebinds
# names in loaded modules only
import treepack.cartesian
import treepack.cli
import treepack.lex
import treepack.oracle
import treepack.products
from treepack.catalogue import complete, cycle, path
from treepack.core import TreePacking, write_graph
from treepack.verify import verify_packing

from reference import mutated_packings

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import check
    import spans
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))


@settings(max_examples=300, deadline=None)
@given(mutated_packings(1, 7))
# pinned: two spanning trees that share an edge, which only the disjointness
# check can fail, and the one known disagreement
@example((complete(4), (((0, 1), (0, 3), (2, 3)), ((0, 1), (1, 2), (1, 3)))))
@example((path(1), ((), ())))
def test_verify_agrees_with_the_benchmark_checker(case):
    """verify_packing passes exactly the packings that perfbench/check.py,
    which shares no code with it, finds no problem in."""
    host, trees = case
    independent = check.trees_problem(host, [list(t) for t in trees]) is None
    # The one known disagreement: K1 has one spanning tree, the empty one, so
    # verify fails two or more (empty) trees on it; check.py has no such rule.
    one_vertex_rule = host.n == 1 and len(trees) > 1
    report = verify_packing(host, TreePacking(host, trees))
    assert report.overall == (independent and not one_vertex_rule)


# The targets pack-given runs through, each of which must keep a binding: a
# span whose target a refactor unbinds reads 0 without failing an op.
LIVE = ["core.read_graph", "core.write_graph", "products.cartesian",
        "products.lexicographic", "products.write_product",
        "cartesian.pack_cartesian", "lex.pack_lex", "verify.verify_packing"]


def test_each_op_kind_meets_the_benchmark_span_contract(tmp_path):
    """One small op of each kind in workloads.MIN_SPANS, through cli.main
    with perfbench/spans.py installed, as `run.py --trace 1` runs them: each
    sees every span its kind needs and none that NO_SPANS forbids."""
    k4, c4 = tmp_path / "k4.graph", tmp_path / "c4.graph"
    k4.write_text(write_graph(complete(4)))
    c4.write_text(write_graph(cycle(4)))
    fk4, fc4 = tmp_path / "k4.factor.json", tmp_path / "c4.factor.json"
    fk4.write_text('{"trees": [[[0, 1], [1, 2], [2, 3]], [[0, 2], [0, 3], [1, 3]]]}')
    fc4.write_text('{"trees": [[[0, 1], [1, 2], [2, 3]]]}')
    out = tmp_path / "k4xc4.pack.json"
    ops = {
        "pack-oracle": ["pack", "cartesian", k4, c4, "--format", "json"],
        "pack-given": ["pack", "cartesian", k4, c4, "--factor-packing", fk4,
                       "--factor-packing", fc4, "--out", out],
        "verify": ["verify", f"{out}.graph", out, "--format", "json"],
        "oracle": ["oracle", k4, "--format", "json"],
    }
    assert ops.keys() == workloads.MIN_SPANS.keys()
    tracer = spans.Tracer()
    uninstall, bindings = spans.install(tracer)
    problems = []
    try:
        for kind, argv in ops.items():
            before = tracer.calls.copy()
            assert treepack.cli.main([str(a) for a in argv]) == 0, kind
            for span, least in workloads.MIN_SPANS[kind].items():
                if tracer.calls[span] - before[span] < least:
                    problems.append(f"{kind}: {span} seen fewer than {least} times")
            for span in workloads.NO_SPANS.get(kind, ()):
                if tracer.calls[span] != before[span]:
                    problems.append(f"{kind}: {span} seen")
    finally:
        uninstall()
    assert problems == []
    assert [t for t in LIVE if not bindings.get(f"treepack.{t}")] == []
