"""The counting arguments behind both constructions, proved as lemmas.

``pack_cartesian`` and ``pack_lex`` take spare fibers, leftover rungs, fiber
trees, cross sections and matching pairs from budgets they do not check at
run time; ``verified_packing`` at the end of each is the one runtime check.
Each lemma below restates a budget in the construction's own terms and checks
it for every packing size the entry check admits.  ``check_packing`` accepts
one tree on a one-vertex host and k <= n // 2 trees on n >= 2 vertices, since
k disjoint spanning trees need k(n-1) <= n(n-1)/2 edges.
"""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepack.cartesian import leaf_split, pack_cartesian
from treepack.catalogue import complete
from treepack.core import Graph, root_tree
from treepack.lex import (BALANCED, G_RICH, H_RICH, LexPlan, lex_plan,
                          pack_lex)
from treepack.oracle import max_packing
from treepack.products import LEXICOGRAPHIC, ProductGraph

from reference import components, is_one_cycle, random_tree

CARTESIAN_MAX_N = 60
LEX_MAX_N = 40


def sizes(n: int) -> range:
    """The packing sizes check_packing admits on n vertices."""
    return range(1, max(1, n // 2) + 1)


def _free_fibers(n1: int) -> tuple[int, int]:
    """pack_cartesian's free subtree copies and free forest copies.

    Of the n1 - 1 child fibers the first cut = (n1-1)//2 keep the subtree
    copy, leaving their forest copy free; the rest keep the forest copy,
    leaving their subtree copy free.
    """
    cut = (n1 - 1) // 2
    return n1 - 1 - cut, cut


def _spare_fibers_suffice(n1: int, k: int) -> bool:
    """k - 1 first-factor trees each take a free subtree and forest copy."""
    return k - 1 <= min(_free_fibers(n1))


def _leftover_rungs_suffice(n1: int, ell: int, subtree_left: int,
                            forest_left: int) -> bool:
    """ell - 1 second-factor trees each take one leftover rung per bundle.  A
    bundle gluing a subtree-keeping fiber leaves subtree_left rungs, one
    gluing a forest-keeping fiber forest_left."""
    keep_forest, keep_subtree = _free_fibers(n1)
    return all(ell - 1 <= left for left, bundles in (
        (subtree_left, keep_subtree), (forest_left, keep_forest)) if bundles)


def _relabelled_tree(n: int, rng: random.Random) -> tuple:
    """A random tree whose edges, read as (min, max), are not all oriented
    away from vertex 0."""
    label = rng.sample(range(n), n)
    return tuple(sorted((min(label[a], label[b]), max(label[a], label[b]))
                        for a, b in random_tree(rng, n)))


def test_cartesian_spare_fibers_lemma():
    # the budget depends on n1 and k only
    for n1 in range(1, CARTESIAN_MAX_N + 1):
        for k in sizes(n1):
            assert _spare_fibers_suffice(n1, k), (n1, k)


def test_cartesian_leftover_rungs_lemma():
    # rungs counted as pack_cartesian picks them, from real leaf splits of a
    # path, a star and a random tree; the budget depends on n1, n2 and ell
    rng = random.Random(7)
    for n2 in range(1, CARTESIAN_MAX_N + 1):
        trees = {tuple((v, v + 1) for v in range(n2 - 1)),
                 tuple((0, v) for v in range(1, n2)), random_tree(rng, n2)}
        for tree in trees:
            _, kept, _ = leaf_split(n2, tree)
            assert len(kept) == (n2 + 1) // 2
            forest_rungs = set(kept)
            subtree_rungs = set(range(n2)) - set(kept[1:])
            left = n2 - len(subtree_rungs), n2 - len(forest_rungs)
            for n1 in range(1, CARTESIAN_MAX_N + 1):
                for ell in sizes(n2):
                    assert _leftover_rungs_suffice(n1, ell, *left), (n1, n2, ell)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cartesian_budgets_beyond_the_exhaustive_range(data):
    n1 = data.draw(st.integers(1, 10**6))
    n2 = data.draw(st.integers(CARTESIAN_MAX_N + 1 if n1 <= CARTESIAN_MAX_N
                               else 1, 10**6))
    k = data.draw(st.integers(1, sizes(n1)[-1]))
    ell = data.draw(st.integers(1, sizes(n2)[-1]))
    kept = (n2 + 1) // 2   # leaf_split keeps ceil(n2/2) vertices
    assert _spare_fibers_suffice(n1, k)
    assert _leftover_rungs_suffice(n1, ell, kept - 1, n2 - kept)


def _candidates(k: int, n2: int) -> list[tuple[int, int]]:
    """pack_lex's g_rich matching pairs (i, r), built as it builds them."""
    return [(i, r) for i in range(k) for r in range(1, n2 // 2 + 1)
            if not (i == k - 1 and 2 * r == n2)]


def _candidate_count(k: int, n2: int) -> int:
    return k * (n2 // 2) - (n2 % 2 == 0)


def _lex_budgets_hold(k: int, ell: int, n1: int, n2: int,
                      candidates: int) -> LexPlan:
    """Check the budgets of the regime lex_plan picks, and that the trees the
    construction pairs up number plan.tree_count; return the plan."""
    plan = lex_plan(k, ell, n1, n2)
    x = plan.x
    if plan.case == BALANCED:
        # every parallel subgraph meets exactly one fiber tree
        assert k * n2 == ell * n1
        built = k * n2
    elif plan.case == H_RICH:
        # x fiber trees cover the k*n2 - 1 unreserved subgraphs, and the
        # other ell - x trees each take one of n2 cross sections
        assert x <= ell and ell - x <= n2 and x * n1 >= k * n2 - 1
        built = k * n2 - 1 + ell - x
    else:
        # ell cross sections; x matching pairs whose n1 - 1 cycles each close
        # one of the k*n2 - 1 - 2x remaining subgraphs
        assert plan.case == G_RICH
        singles, cycles = k * n2 - 1 - 2 * x, x * (n1 - 1)
        assert ell <= n2 and candidates >= x and singles <= cycles
        built = ell + singles
    assert built == plan.tree_count
    return plan


def test_lex_budget_lemmas():
    regimes = set()
    for n2 in range(2, LEX_MAX_N + 1):
        reserved = n2   # the identity matching of the last G-tree
        for k in range(1, LEX_MAX_N // 2 + 1):
            candidates = _candidates(k, n2)
            assert len(candidates) == _candidate_count(k, n2)
            for n1 in range(max(2, 2 * k), LEX_MAX_N + 1):
                for ell in sizes(n2):
                    plan = _lex_budgets_hold(k, ell, n1, n2, len(candidates))
                    regimes.add(plan.case)
                    if plan.case == G_RICH:
                        # the taken pairs consume 2x distinct matchings,
                        # none of them the reserved one
                        x = plan.x
                        consumed = {(i, j) for i, r in candidates[:x]
                                    for j in (2 * r - 1, 2 * r)}
                        assert len(consumed) == 2 * x
                        assert (k - 1, reserved) not in consumed
    assert regimes == {BALANCED, H_RICH, G_RICH}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lex_budgets_beyond_the_exhaustive_range(data):
    n1 = data.draw(st.integers(2, 10**6))
    n2 = data.draw(st.integers(LEX_MAX_N + 1 if n1 <= LEX_MAX_N else 2, 10**6))
    k = data.draw(st.integers(1, n1 // 2))
    ell = data.draw(st.integers(1, n2 // 2))
    _lex_budgets_hold(k, ell, n1, n2, _candidate_count(k, n2))


# g_rich zips each single, parallel subgraph (i, j) = matching j over G-tree
# i, with a cycle, matchings 2r-1 and 2r over one edge (p, c) of a G-tree,
# and takes a spanning tree of their union.  The union is connected: the
# single's n2 components each meet every fiber once, so each meets fiber p,
# and the cycle is connected and runs through all of fiber p.  The two
# lemmas below check these facts for every j, r and tree edge, so they hold
# for whichever pairs the zip makes.

LEX_UNION_MAX_N = 12


def _shell(n1: int, n2: int) -> ProductGraph:
    """A lexicographic product's copy verbs without its edges."""
    return ProductGraph(LEXICOGRAPHIC, Graph(0, ()), n1, n2)


def _single_meets_every_fiber_once(n1: int, n2: int, tree: tuple,
                                   j: int) -> bool:
    """Matching j over the tree rooted as pack_lex roots it has n2
    components, each holding one vertex of every fiber."""
    single = _shell(n1, n2).matching_copy(root_tree(n1, tree), j)
    comps = components(n1 * n2, single)
    return len(comps) == n2 and all(
        [v // n2 for v in comp] == list(range(n1)) for comp in comps)


def _pair_is_one_cycle_through_both_fibers(n2: int, p: int, c: int,
                                           r: int) -> bool:
    """Matchings 2r-1 and 2r over (p, c) form one cycle through all 2*n2
    vertices of fibers p and c."""
    shell = _shell(max(p, c) + 1, n2)
    cycle = (shell.matching_copy([(p, c)], 2 * r - 1)
             + shell.matching_copy([(p, c)], 2 * r))
    fibers = {u * n2 + t for u in (p, c) for t in range(n2)}
    return ({v for e in cycle for v in e} == fibers
            and is_one_cycle(cycle, 2 * n2))


def test_lex_single_meets_every_fiber_once_lemma():
    # a path, a star and a random tree with shuffled labels, each rooted at
    # 0 by root_tree
    rng = random.Random(11)
    for n1 in range(2, LEX_UNION_MAX_N + 1):
        trees = {tuple((v, v + 1) for v in range(n1 - 1)),
                 tuple((0, v) for v in range(1, n1)), _relabelled_tree(n1, rng)}
        for tree in trees:
            for n2 in range(2, LEX_UNION_MAX_N + 1):
                for j in range(1, n2 + 1):
                    assert _single_meets_every_fiber_once(n1, n2, tree, j), \
                        (n1, n2, tree, j)


def test_lex_cycle_pair_lemma():
    # every oriented edge between four fibers: both orientations, adjacent
    # fibers and not
    for n2 in range(2, LEX_MAX_N + 1):
        for p, c in permutations(range(4), 2):
            for r in range(1, n2 // 2 + 1):
                assert _pair_is_one_cycle_through_both_fibers(n2, p, c, r), \
                    (n2, p, c, r)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lex_union_lemmas_beyond_the_exhaustive_range(data):
    n1 = data.draw(st.integers(2, 120))
    n2 = data.draw(st.integers(LEX_UNION_MAX_N + 1 if n1 <= LEX_UNION_MAX_N
                               else 2, 120))
    tree = _relabelled_tree(n1, random.Random(data.draw(st.integers(0, 2**32))))
    j = data.draw(st.integers(1, n2))
    assert _single_meets_every_fiber_once(n1, n2, tree, j)
    n2 = data.draw(st.integers(LEX_MAX_N + 1, 10**4))
    p, c = data.draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=2,
                              unique=True))
    r = data.draw(st.integers(1, n2 // 2))
    assert _pair_is_one_cycle_through_both_fibers(n2, p, c, r)


def _complete_packing(n: int):
    g = complete(n)
    packing = max_packing(g).packing
    assert len(packing.trees) == n // 2
    return g, packing


@pytest.mark.parametrize("n1, n2", [(6, 4), (4, 6), (7, 5)])
def test_cartesian_at_the_budget_edge(n1, n2):
    # K_n packs n // 2 trees, the most any n-vertex host admits.  With n1
    # (n2) even the spare fibers (leftover rungs) run out: one more tree
    # would not fit
    (g, pg), (h, ph) = _complete_packing(n1), _complete_packing(n2)
    k, ell = n1 // 2, n2 // 2
    kept = (n2 + 1) // 2
    assert _spare_fibers_suffice(n1, k + 1) == (n1 % 2 == 1)
    assert _leftover_rungs_suffice(n1, ell + 1, kept - 1, n2 - kept) == (n2 % 2 == 1)
    assert len(pack_cartesian(g, h, pg, ph).trees) == k + ell - 1


@pytest.mark.parametrize("n1, n2, case, tight", [
    (4, 4, BALANCED, "subgraphs == fiber trees"),
    (5, 4, H_RICH, "x == ell"),
    (2, 5, G_RICH, "candidates == x"),
    (6, 5, G_RICH, "singles == cycles"),
])
def test_lex_at_the_budget_edge(n1, n2, case, tight):
    (g, pg), (h, ph) = _complete_packing(n1), _complete_packing(n2)
    k, ell = n1 // 2, n2 // 2
    plan = lex_plan(k, ell, n1, n2)
    assert plan.case == case
    sides = {
        "subgraphs == fiber trees": (k * n2, ell * n1),
        "x == ell": (plan.x, ell),
        "candidates == x": (_candidate_count(k, n2), plan.x),
        "singles == cycles": (k * n2 - 1 - 2 * plan.x, plan.x * (n1 - 1)),
    }[tight]
    assert sides[0] == sides[1]
    assert len(pack_lex(g, h, pg, ph).trees) == plan.tree_count
