import importlib
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treepack
from treepack.catalogue import (FAMILIES, complete, complete_minus_edge,
                                complete_multipartite, cycle, hypercube, path)
from treepack.cli import main
from treepack.core import (MAX_EDGES, Graph, ParameterError, ParseError,
                           SizeError, normalize_edge, read_graph, write_graph,
                           ContractError, TreePacking, _read_lines, _read_written)
from treepack.verify import Check, VerificationReport, check_packing

from reference import components


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    assert normalize_edge(1, 3) == (1, 3)


def test_graph_from_edges_sorts_and_validates():
    g = Graph.from_edges(4, [(2, 1), (0, 3), (0, 1)])
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.m == 3
    assert set(g.edges) == {(0, 1), (0, 3), (1, 2)}


def test_graph_rejects_bad_edges():
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ParameterError):
        Graph.from_edges(-1, [])


def test_components_and_connectivity():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert components(g.n, g.edges) == ((0, 1), (2, 3), (4,))
    assert not g.is_connected()
    assert path(6).is_connected()
    assert components(3, []) == ((0,), (1,), (2,))


def test_family_sizes():
    assert (path(5).n, path(5).m) == (5, 4)
    assert (cycle(5).n, cycle(5).m) == (5, 5)
    assert (complete(6).n, complete(6).m) == (6, 15)
    km = complete_multipartite(3, 2)
    assert (km.n, km.m) == (6, 12)
    # vertices in one part stay non-adjacent
    assert (0, 1) not in km.edges and (0, 2) in km.edges
    q = hypercube(3)
    assert (q.n, q.m) == (8, 12)
    # each vertex meets the 3 vertices one bit away
    assert Counter(v for e in q.edges for v in e) == dict.fromkeys(range(8), 3)
    assert all(bin(a ^ b).count("1") == 1 for a, b in q.edges)
    km_e = complete_minus_edge(4)
    assert km_e.m == 5 and (2, 3) not in km_e.edges


def test_family_parameter_errors(capsys):
    # out of range: the constructor's ParameterError, and exit 2 on the CLI
    for name, make, params in (("path", path, (0,)), ("path", path, (-3,)),
                               ("cycle", cycle, (2,)),
                               ("complete", complete, (0,)),
                               ("multipartite", complete_multipartite, (1, 2)),
                               ("hypercube", hypercube, (0,)),
                               ("complete-minus-edge", complete_minus_edge, (2,))):
        with pytest.raises(ParameterError) as exc:
            make(*params)
        assert main(["gen", name, *map(str, params)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
    for argv, err in ((["path", "1", "2"], "path takes 1 parameter(s), got 2"),
                      (["multipartite", "3"],
                       "complete_multipartite takes 2 parameter(s), got 1")):
        assert main(["gen", *argv]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
    with pytest.raises(SystemExit) as usage:
        main(["gen", "nonesuch", "3"])
    assert usage.value.code == 2
    # a parameter is ASCII decimal digits, as in graph files
    for word in ("+3", "1_0", "\u0663", " 3"):
        with pytest.raises(SystemExit) as usage:
            main(["gen", "path", word])
        assert usage.value.code == 2
        assert f"invalid int value: {word!r}" in capsys.readouterr().err


def test_edge_cap_checked_before_building():
    # every family just past MAX_EDGES edges, and far past it
    for make, params in ((path, (MAX_EDGES + 2,)), (cycle, (MAX_EDGES + 1,)),
                         (complete, (2001,)), (complete_minus_edge, (2002,)),
                         (complete_multipartite, (2, 1415)),
                         (hypercube, (18,)), (hypercube, (10 ** 9,))):
        with pytest.raises(SizeError):
            make(*params)
    assert hypercube(17).m == 17 << 16 <= MAX_EDGES
    for line in (f"p 3 {MAX_EDGES + 1}", f"p {MAX_EDGES + 2} 0"):
        with pytest.raises(SizeError, match="line 1: .* above the cap"):
            read_graph(line + "\n")
    assert read_graph(f"p {MAX_EDGES + 1} 0\n").n == MAX_EDGES + 1


def test_every_exported_name_resolves():
    for name in treepack.__all__:
        assert getattr(treepack, name, None) is not None, name


def test_every_exported_name_is_used():
    """Public API is what src/ or the README needs: each exported name is
    named in README.md or in a module other than __init__ and its own."""
    src = Path(treepack.__file__).parent
    readme = (src.parents[1] / "README.md").read_text(encoding="utf-8")
    modules = {p.stem: p.read_text(encoding="utf-8") for p in src.glob("*.py")
               if p.name != "__init__.py"}
    for name in treepack.__all__:
        home = getattr(getattr(treepack, name), "__module__", "").rpartition(".")[2]
        word = re.compile(rf"\b{name}\b")
        users = [m for m, text in modules.items() if m != home and word.search(text)]
        assert users or word.search(readme), name


def test_star_import_binds_each_name_to_its_home_object():
    namespace: dict = {}
    exec("from treepack import *", namespace)
    for name in treepack.__all__:
        home = importlib.import_module(f"treepack.{treepack._HOME[name]}")
        assert namespace[name] is getattr(home, name), name


def test_carrier_types_are_read_only_values():
    g = complete(3)
    packing = TreePacking(g, (((0, 1), (1, 2)),))
    assert packing.method == "user"
    assert VerificationReport("no trees").checks == ()
    assert repr(complete(2)) == "Graph(n=2, edges=((0, 1),))"
    assert complete(2) == (2, ((0, 1),))
    for obj, field in ((g, "n"), (g, "edges"), (packing, "host"),
                       (packing, "trees"), (Check("c", True), "passed")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_generate_matches_direct_builders(capsys):
    cases = (("path", path, (4,)), ("cycle", cycle, (4,)),
             ("complete", complete, (4,)),
             ("multipartite", complete_multipartite, (2, 2)),
             ("hypercube", hypercube, (3,)),
             ("complete-minus-edge", complete_minus_edge, (4,)))
    assert sorted(FAMILIES) == sorted(name for name, _, _ in cases)
    for name, make, params in cases:
        words = [str(p) for p in params]
        assert main(["gen", name, *words]) == 0
        assert capsys.readouterr().out == write_graph(
            make(*params), [f"family {name} {' '.join(words)}"])


def test_edge_list_round_trip():
    for g in (path(4), cycle(5), complete(4), hypercube(3)):
        text = write_graph(g, ["round trip"])
        back = read_graph(text)
        # the whole-text reader takes every text write_graph writes
        assert _read_written(text) == back
        assert _read_written(write_graph(g, ["family complete-minus-edge 5",
                                             "k_2 + 1"])) == back
        assert back.n == g.n and back.edges == g.edges
        assert back == g and hash(back) == hash(g)
        assert back != Graph(g.n, g.edges[:-1])


def _read_both(text: str) -> Graph:
    """read_graph(text), checked against the line reader, the reference: the
    whole-text reader declines or returns the line reader's graph, and
    read_graph raises the line reader's exact message."""
    try:
        expected = _read_lines(text)
    except ParseError as exc:
        assert _read_written(text) is None
        with pytest.raises(ParseError) as got:
            read_graph(text)
        assert str(got.value) == str(exc)
        raise
    assert _read_written(text) in (None, expected)
    assert read_graph(text) == expected
    return expected


def test_read_graph_errors_carry_line_numbers():
    cases = [
        ("p 3 1\ne 1 1\n", "line 2"),          # self-loop
        ("p 3 1\ne 2 1\n", "a < b"),           # unordered endpoints
        ("p 3 1\ne 0 5\n", "out of range"),
        ("p 4 1\ne -1 3\n", "line 2: endpoint -1 out of range"),
        ("p 3 2\ne 0 1\ne 0 1\n", "line 3: duplicate"),
        ("p 3 2\ne 0 1\n", "promises 2"),
        ("e 0 1\n", "before 'p'"),
        ("p 3 x\n", "non-integer"),
        ("q 3 1\n", "unrecognized"),
        ("# only a comment\n", "missing 'p"),
        ("p 3 0\np 3 0\n", "second 'p'"),
        # int() would read these as numbers; the format takes ASCII decimal
        ("p 3 1\ne 1 \u0662\n", "line 2: non-integer endpoint"),
        ("p 30 1\ne 0 2_0\n", "line 2: non-integer endpoint"),
        ("p 3 1\ne +0 1\n", "line 2: non-integer endpoint"),
        ("# \u00e9\np 3 1\ne 0 \uff12\n", "line 3: non-integer endpoint"),
        ("p \u0663 0\n", "line 1: non-integer in 'p' line"),
        ("p 1_0 0\n", "line 1: non-integer in 'p' line"),
        # lines end at '\n' only: a '\v' keeps the edge inside the comment,
        # and a lone '\r' ends no line
        ("p 2 1\n# note\ve 0 1\n", "promises 1 edges, found 0"),
        ("p 2 1\re 0 1\r", "line 1: expected 'p <n> <m>'"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError) as exc:
            _read_both(text)
        assert needle in str(exc.value)


_TOKENS = ["p", "e", "#", "0", "1", "3", "03", "-1", "-2", "4", "99", "x",
           "1.5", "\u0663", "", "e 0 2", "p 4 3", "\n", "\r", "\x85", "#-"]


@st.composite
def _edited_texts(draw):
    """write_graph's text of C4 with up to six edits, each putting a token in
    place of token j of line i (appends past the end; the empty token
    deletes), and the line ends '\n', '\r\n' or ' \n', the last one
    possibly missing."""
    lines = [line.split() for line in
             write_graph(cycle(4), ["fuzz"]).splitlines()]
    edits = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3),
                                    st.sampled_from(_TOKENS)), max_size=6))
    for i, j, token in edits:
        words = lines[i % len(lines)]
        words[j:j + 1] = [token] if token else []
    end = draw(st.sampled_from(["\n", "\r\n", " \n"]))
    text = end.join(" ".join(words) for words in lines) + end
    return text[:-1] if draw(st.booleans()) else text


@settings(max_examples=500, deadline=None)
@given(_edited_texts())
# the traps for a whole-text reader of write_graph's layout
@example("p 3 2\ne 0\n 1 e 1 2\n")     # a 2-token line, then a 4-token one
@example("p 3 1\n e 0 1\n")            # 'e' after leading whitespace
@example("# family complete-minus-edge 5\np 2 1\ne 0 1\n")
@example("p 03 1\ne 0 1\n")
@example("p 3 1\ne 0 01\n")
@example("p 2 1\r\ne 0 1\r\n")
@example("p 2 1\ne 0 1")                # no final newline
@example("p 1 0\n")                     # m = 0
@example("p 0 0\n")
@example("p -1 0\n")
@example("p 4 2\ne 2 3\ne 0 1\n")      # unsorted
@example("p 4 2\ne 0 1\ne 0 1\n")      # duplicate
@example("p 4 3\ne 2 3\ne 0 1\ne 2 3\n")
@example("p 3 1\ne 0\x851\n")          # non-ASCII whitespace
@example("p 3 1\ne 0\n1\n")
@example("p 3 2\ne 0 1\n\ne 1 2\n")   # a blank line between edges
def test_read_graph_fuzz_raises_only_parse_error(text):
    """Mutated edge-list text either parses to a valid graph or raises
    ParseError, and both readers agree on it."""
    try:
        g = _read_both(text)
    except ParseError:
        return
    assert Graph.from_edges(g.n, g.edges) == g


def test_read_graph_skips_comments_and_blanks():
    g = _read_both("# hello\n\np 2 1\n# mid\ne 0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)
    # a comment may hold any character; leading zeros are still decimal
    g = _read_both("# caf\u00e9 + tea_time\np 03 1\ne 00 2\n")
    assert g.n == 3 and g.edges == ((0, 2),)
    # other line breaks are whitespace inside a line, so a comment keeps its
    # tail; '\r\n' files read as '\n' ones
    for text in ("# tab\fform feed in a comment\np 2 1\ne 0 1\n",
                 "p 2 1\ne 0 1\n# a\x1cb\n",
                 "# \x85 \u2028 \u2029\np 2 1\ne 0 1\n",
                 "p 2 1\r\ne 0 1\r\n"):
        assert _read_both(text) == path(2), repr(text)


def test_check_packing_contract_errors():
    g = complete(4)
    t1 = ((0, 1), (0, 2), (0, 3))
    t2 = ((1, 2), (1, 3), (2, 3))
    check_packing(TreePacking(g, (t1,)), g, "ok")  # no raise
    with pytest.raises(ContractError, match="trees pairwise edge-disjoint"):
        check_packing(TreePacking(g, (t1, t1)), g, "dup")
    with pytest.raises(ContractError, match="tree 0: acyclic"):
        check_packing(TreePacking(g, (t2,)), g, "cyc")
    with pytest.raises(ContractError, match="at least one"):
        check_packing(TreePacking(g, ()), g, "empty")
    with pytest.raises(ContractError, match="host"):
        check_packing(TreePacking(g, (t1,)), complete(5), "host")
    # K1 has exactly one spanning tree, the empty one
    k1 = path(1)
    check_packing(TreePacking(k1, ((),)), k1, "ok")  # no raise
    with pytest.raises(ContractError, match="one-vertex host has one spanning tree"):
        check_packing(TreePacking(k1, ((), ())), k1, "two empty")
