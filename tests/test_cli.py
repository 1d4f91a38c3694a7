import io
import json
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import takewhile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commands import GOLDEN, ROWS
from treepack.cli import COMMANDS, _build_parser, _parse_plain, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_text(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "complete", "4")
    assert code == 0
    assert "p 4 6" in out
    assert "e 0 1" in out

    target = tmp_path / "k4.txt"
    code, out, _ = run(capsys, "gen", "complete", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert "p 4 6" in target.read_text()


def test_gen_json(capsys):
    code, out, _ = run(capsys, "gen", "hypercube", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 8 and record["m"] == 12


def test_gen_and_product_json_records_are_pinned(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "path", "3", "--format", "json")
    assert code == 0
    assert out == '{"edges":[[0,1],[1,2]],"m":2,"n":3}\n'
    p3 = tmp_path / "p3.txt"
    run(capsys, "gen", "path", "3", "--out", str(p3))
    code, out, _ = run(capsys, "product", "cartesian", str(p3), str(p3),
                       "--format", "json")
    assert code == 0
    assert out == (
        '{"edges":[[0,1],[0,3],[1,2],[1,4],[2,5],[3,4],[3,6],[4,5],[4,7],'
        '[5,8],[6,7],[7,8]],"kind":"cartesian","m":12,"n":9,"n1":3,"n2":3}\n')


def test_gen_multipartite_and_errors(capsys):
    code, out, _ = run(capsys, "gen", "multipartite", "3", "2")
    assert code == 0 and "p 6 12" in out
    code, _, err = run(capsys, "gen", "cycle", "2")
    assert code == 2 and "error:" in err


def test_gen_multipartite_size_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "gen", "multipartite", "2", "0")
    assert code == 2 and out == ""
    assert "complete_multipartite requires size >= 1, got 0" in err


def test_product_with_empty_factor_is_usage_error(capsys, tmp_path):
    empty, p3 = tmp_path / "empty.txt", tmp_path / "p3.txt"
    empty.write_text("p 0 0\n")
    run(capsys, "gen", "path", "3", "--out", str(p3))
    code, out, err = run(capsys, "product", "cartesian", str(empty), str(p3))
    assert code == 2 and out == ""
    assert "both factors must be non-empty" in err
    # pack checks its factors as product does, before any factor packing
    code, out, err = run(capsys, "pack", "cartesian", str(empty), str(p3))
    assert code == 2 and out == ""
    assert "error: both factors must be non-empty" in err


def test_product_out_writes_the_graph_and_no_stdout(capsys, tmp_path):
    p3, target = tmp_path / "p3.txt", tmp_path / "p3xp3.txt"
    run(capsys, "gen", "path", "3", "--out", str(p3))
    _, printed, _ = run(capsys, "product", "cartesian", str(p3), str(p3))
    code, out, _ = run(capsys, "product", "cartesian", str(p3), str(p3),
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == printed


def test_factor_packing_three_times_is_usage_error(capsys, tmp_path):
    k4, pk = tmp_path / "k4.txt", tmp_path / "pk.json"
    run(capsys, "gen", "complete", "4", "--out", str(k4))
    pk.write_text(json.dumps({"trees": [[[0, 1], [0, 2], [0, 3]]]}))
    code, out, err = run(capsys, "pack", "cartesian", str(k4), str(k4),
                         *["--factor-packing", str(pk)] * 3)
    assert code == 2 and out == ""
    assert "may be given at most twice" in err


def test_product_files(capsys, tmp_path):
    p3 = tmp_path / "p3.txt"
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "path", "3", "--out", str(p3))
    run(capsys, "gen", "complete", "4", "--out", str(k4))

    code, out, _ = run(capsys, "product", "cartesian", str(p3), str(p3))
    assert code == 0 and "p 9 12" in out and "# product cartesian n1=3 n2=3" in out

    code, out, _ = run(capsys, "product", "lex", str(p3), str(k4))
    assert code == 0 and "p 12 50" in out

    code, _, err = run(capsys, "product", "cartesian", str(p3), "missing.txt")
    assert code == 2 and "error:" in err


def test_pack_and_verify_round_trip(capsys, tmp_path):
    p3 = tmp_path / "p3.txt"
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "path", "3", "--out", str(p3))
    run(capsys, "gen", "complete", "4", "--out", str(k4))

    packing = tmp_path / "packing.json"
    code, out, _ = run(capsys, "pack", "lex", str(p3), str(k4),
                       "--out", str(packing))
    assert code == 0
    record = json.loads(packing.read_text())
    assert record["method"] == "constructed-lex"
    assert record["bound"] == 4
    assert record["verified"] is True
    assert len(record["trees"]) == 4
    assert record["graph"] == "packing.json.graph"
    graph_file = tmp_path / "packing.json.graph"
    assert graph_file.exists()

    code, out, _ = run(capsys, "verify", str(graph_file), str(packing))
    assert code == 0
    assert out.startswith("PASS")

    # corrupt one edge: packing must now fail verification with exit 1
    record["trees"][0] = record["trees"][0][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))
    code, out, _ = run(capsys, "verify", str(graph_file), str(bad))
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_out_of_range_vertex_fails(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "complete", "4", "--out", str(k4))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trees": [[[0, 1], [2, 9], [0, 3]]]}))
    code, out, _ = run(capsys, "verify", str(k4), str(bad), "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["overall"] is False
    assert any("(2, 9)" in (c["witness"] or "") for c in record["checks"])


@pytest.mark.parametrize("record, problem", [
    ({"method": "user"}, "trees"),
    ({"trees": [[[0, 1, 2]]]}, "pair"),
    ({"trees": [[[0, "a"]]]}, "non-integer"),
    # a method the report would print: it may not forge a line of its own,
    # reverse the text after it, or print as a Python repr
    ({"method": "user)\nPASS packing of 2 trees (user", "trees": [[], []]},
     "method"),
    ({"method": "user\u202e", "trees": [[[0, 1]]]}, "method"),
    ({"method": {"name": "user"}, "trees": [[[0, 1]]]}, "method"),
    ({"trees": [5]}, "tree 0 is not a list of edges"),
])
def test_malformed_packing_file_is_usage_error(capsys, tmp_path, record, problem):
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "complete", "4", "--out", str(k4))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))
    code, _, err = run(capsys, "verify", str(k4), str(bad))
    assert code == 2
    assert "error:" in err and problem in err


@pytest.mark.parametrize("command, graph, packing, needle", [
    ("verify", b"\xff\xfep 2 1\ne 0 1\n", None, "g.txt: not UTF-8 text"),
    ("oracle", b"p 2 1\ne 0 \xff\n", None, "g.txt: not UTF-8 text"),
    ("verify", None, b'{"trees": [[[0, 1]]]}\xff', "pk.json: not UTF-8 text"),
    ("verify", None, b"[" * 200_000, "pk.json: JSON nested too deeply"),
    ("verify", None, b"[[[0, " + b"1" * 5000 + b"]]]", "pk.json: Exceeds the limit"),
    # '\v' breaks no line: the edge sits inside the comment
    ("verify", b"p 2 1\n# note\ve 0 1\n", None, "promises 1 edges, found 0"),
    # nor does a lone '\r': the file is one line, as read_graph reads it
    ("oracle", b"p 2 1\re 0 1\r", None, "line 1: expected 'p <n> <m>'"),
], ids=["graph-not-utf8", "oracle-not-utf8", "packing-not-utf8", "deep-json",
        "long-integer", "edge-in-comment", "lone-cr"])
def test_hostile_files_are_usage_errors(capsys, tmp_path, command, graph,
                                        packing, needle):
    g, pk = tmp_path / "g.txt", tmp_path / "pk.json"
    g.write_bytes(graph or b"p 2 1\ne 0 1\n")
    pk.write_bytes(packing or b'{"trees": [[[0, 1]]]}')
    argv = [command, str(g)] + ([str(pk)] if command == "verify" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and needle in err


def _edited(base: bytes):
    """Raw bytes, or the base file with a few byte-range replacements."""
    edit = st.tuples(st.integers(0, len(base)), st.integers(0, 4),
                     st.binary(max_size=4) | st.sampled_from(
                         [b"[", b"]", b",", b"-1", b"9", b" ", b"\n", b"e", b"p"]))

    def apply(edits):
        data = base
        for pos, cut, new in edits:
            data = data[:pos] + new + data[pos + cut:]
        return data
    return st.binary(max_size=40) | st.lists(edit, max_size=4).map(apply)


_K4 = (GOLDEN / "k4.graph").read_bytes()
_K4_PACKING = (GOLDEN / "k4.factor.json").read_bytes()


@settings(max_examples=400, deadline=None)
@given(_edited(_K4), _edited(_K4_PACKING))
@example(b"\xff\xfe" + _K4, _K4_PACKING)
@example(_K4, b"[" * 200_000)
def test_verify_fuzz_on_raw_bytes_ends_in_report_or_usage_error(graph, packing):
    """Whatever the two files hold, verify exits 0 with a PASS report, 1 with
    a FAIL report, or 2 with an error line: never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        g, pk = Path(tmp, "g.txt"), Path(tmp, "pk.json")
        g.write_bytes(graph)
        pk.write_bytes(packing)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", str(g), str(pk)])
    if code == 2:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""
    else:
        assert (code, out.getvalue()[:4]) in {(0, "PASS"), (1, "FAIL")}


_K1 = b"p 1 0\n"
_TWO_EMPTY = b'{"trees": [[],[]]}'


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["cartesian", "lex"]), _edited(_K4), _edited(_K4),
       _edited(_K4_PACKING), _edited(_K4_PACKING))
@example("cartesian", _K1, _K4, _TWO_EMPTY, _K4_PACKING)
@example("cartesian", _K4, _K1, _K4_PACKING, _TWO_EMPTY)
@example("lex", _K4, _K1, _K4_PACKING, _TWO_EMPTY)
@example("cartesian", _K4, _K4, _K4_PACKING, _K4_PACKING)
@example("lex", _K4, _K4, _K4_PACKING, _K4_PACKING)
def test_pack_fuzz_on_raw_bytes_ends_in_record_or_usage_error(kind, g, h, pg, ph):
    """Whatever the two graph files and two factor packing files hold, pack
    exits 0 with a verified record or 2 with an error line: never a
    traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        files = [Path(tmp, name) for name in ("g.txt", "h.txt", "pg.json", "ph.json")]
        for file, data in zip(files, (g, h, pg, ph)):
            file.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["pack", kind, str(files[0]), str(files[1]),
                         "--factor-packing", str(files[2]),
                         "--factor-packing", str(files[3]), "--format", "json"])
    if code == 2:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""
    else:
        assert code == 0 and json.loads(out.getvalue())["verified"] is True


def test_pack_one_vertex_factor(capsys, tmp_path):
    k1 = tmp_path / "k1.txt"
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "path", "1", "--out", str(k1))
    run(capsys, "gen", "complete", "4", "--out", str(k4))
    for pair in ((k1, k4), (k4, k1)):
        code, out, _ = run(capsys, "pack", "cartesian", *map(str, pair),
                           "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert len(record["trees"]) == 2 and record["verified"] is True
    code, _, err = run(capsys, "pack", "lex", str(k1), str(k4))
    assert code == 2 and "error:" in err
    # K1 has one spanning tree: two empty trees are a usage error in either
    # factor position, not a traceback
    two = tmp_path / "two.json"
    two.write_text('{"trees": [[],[]]}')
    k4_packing = str(GOLDEN / "k4.factor.json")
    for kind in ("cartesian", "lex"):
        for pair, packings, role in (((k1, k4), (two, k4_packing), "first"),
                                     ((k4, k1), (k4_packing, two), "second")):
            code, out, err = run(
                capsys, "pack", kind, *map(str, pair),
                "--factor-packing", str(packings[0]),
                "--factor-packing", str(packings[1]))
            assert code == 2 and out == ""
            assert err.startswith(f"error: {role} factor packing: a one-vertex host")
    # verify applies the same rule: the pair is a FAIL, with the tree count
    code, out, _ = run(capsys, "verify", str(k1), str(two))
    assert code == 1 and out.startswith("FAIL packing of 2 trees")
    assert out.splitlines()[-1] == ("  FAIL a one-vertex host has one spanning "
                                    "tree (the empty one)  [2 trees]")


def test_pack_cartesian_text_summary(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "complete", "4", "--out", str(k4))
    code, out, _ = run(capsys, "pack", "cartesian", str(k4), str(k4))
    assert code == 0
    assert "3 trees" in out and "verified=true" in out


def test_pack_with_factor_packing_override(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    p3 = tmp_path / "p3.txt"
    run(capsys, "gen", "complete", "4", "--out", str(k4))
    run(capsys, "gen", "path", "3", "--out", str(p3))
    # a single spanning tree of K4 as the supplied factor packing
    override = tmp_path / "pk.json"
    override.write_text(json.dumps(
        {"method": "user", "trees": [[[0, 1], [0, 2], [0, 3]]]}))
    code, out, _ = run(capsys, "pack", "cartesian", str(k4), str(p3),
                       "--factor-packing", str(override), "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["bound"] == 1     # 1 + 1 - 1, not sigma(K4) + 1 - 1
    assert len(record["trees"]) == 1


def test_oracle_text_and_json(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "complete", "4", "--out", str(k4))
    code, out, _ = run(capsys, "oracle", str(k4))
    assert code == 0
    assert "sigma = 2" in out

    code, out, _ = run(capsys, "oracle", str(k4), "--format", "json")
    record = json.loads(out)
    assert record["sigma"] == 2
    assert record["certificate"]["bound"] == 2
    assert len(record["packing"]["trees"]) == 2


def test_crlf_graph_file_reads_as_its_lf_golden(capsys, monkeypatch, tmp_path):
    """CRLF line ends read as LF ones: each '\\r' is whitespace in its line."""
    (tmp_path / "k6.graph").write_bytes(
        (GOLDEN / "k6.graph").read_bytes().replace(b"\n", b"\r\n"))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "oracle", "k6.graph", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "k6.oracle.json").read_text()


@pytest.mark.parametrize("row", ROWS, ids=str)
def test_pinned_command_line(capsys, monkeypatch, tmp_path, row):
    """Each row of tests/golden/commands.txt, through main in this process."""
    monkeypatch.chdir(GOLDEN)
    try:
        code = main(row.argv_in(tmp_path))
    except SystemExit as exc:   # argparse's help and usage errors
        code = exc.code
    out, err = capsys.readouterr()
    row.check(tmp_path, code, out.encode(), err.encode())


@pytest.fixture
def oracle_calls(monkeypatch):
    """The graphs treepack.oracle.max_packing is called on, which still runs."""
    import treepack.oracle
    calls = []
    real = treepack.oracle.max_packing
    monkeypatch.setattr(treepack.oracle, "max_packing",
                        lambda g: calls.append(g) or real(g))
    return calls


def test_oversized_product_is_usage_error(capsys, tmp_path, oracle_calls):
    k2 = tmp_path / "k2.txt"
    p3000 = tmp_path / "p3000.txt"
    run(capsys, "gen", "complete", "2", "--out", str(k2))
    run(capsys, "gen", "path", "3000", "--out", str(p3000))
    for command in ("product", "pack"):
        code, out, err = run(capsys, command, "lex", str(k2), str(p3000))
        assert code == 2 and out == ""
        assert "error: product would have 9005998 edges" in err
    # pack refuses the product before it runs the oracle on either factor
    assert oracle_calls == []


@pytest.mark.parametrize("given", [0, 1, 2], ids=["oracle", "one-file", "two-files"])
@pytest.mark.parametrize("role", ["first", "second"])
@pytest.mark.parametrize("kind", ["cartesian", "lex"])
def test_pack_disconnected_factor_is_refused_before_any_oracle(
        capsys, tmp_path, oracle_calls, kind, role, given):
    """pack refuses a disconnected factor with product's message, whether the
    factor packings would come from the oracle or from files."""
    d, d_packing = tmp_path / "d.txt", tmp_path / "d.json"
    d.write_text("p 4 2\ne 0 1\ne 2 3\n")
    d_packing.write_text('{"trees": [[[0, 1], [2, 3]]]}')
    graphs = [str(d), str(GOLDEN / "k4.graph")]
    packings = [str(d_packing), str(GOLDEN / "k4.factor.json")]
    if role == "second":
        graphs.reverse()
        packings.reverse()
    code, out, err = run(capsys, "product", kind, *graphs)
    assert (code, out, err) == (2, "", f"error: {role} factor must be connected\n")
    flags = [word for path in packings[:given] for word in ("--factor-packing", path)]
    assert run(capsys, "pack", kind, *graphs, *flags) == (code, out, err)
    assert oracle_calls == []


@pytest.mark.parametrize("role", ["first", "second"])
def test_pack_lex_one_vertex_factor_is_refused_before_any_oracle(
        capsys, tmp_path, oracle_calls, role):
    """lex's two-vertex rule comes before the oracle packs the other factor."""
    k1 = tmp_path / "k1.txt"
    run(capsys, "gen", "path", "1", "--out", str(k1))
    graphs = [str(k1), str(GOLDEN / "k4.graph")]
    if role == "second":
        graphs.reverse()
    assert run(capsys, "pack", "lex", *graphs) == (
        2, "", "error: both factors need at least 2 vertices\n")
    assert oracle_calls == []


def test_huge_vertex_count_is_usage_error(capsys, tmp_path):
    # the 'p' line is checked against the edge cap before anything is
    # allocated per vertex
    huge = tmp_path / "huge.txt"
    huge.write_text("p 1000000000000 0\n")
    packing = tmp_path / "pk.json"
    packing.write_text('{"trees": [[]]}\n')
    p3 = tmp_path / "p3.txt"
    run(capsys, "gen", "path", "3", "--out", str(p3))
    for argv in (["verify", str(huge), str(packing)],
                 ["pack", "cartesian", str(huge), str(p3),
                  "--factor-packing", str(packing)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: line 1: 'p 1000000000000 0' is above the cap")


def test_gen_size_is_checked_before_building(capsys):
    tracemalloc.start()
    try:
        for argv in (["gen", "hypercube", "40"], ["gen", "complete", "100000"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "more than 2000000" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("argv", [
    ["oracle", str(GOLDEN / "k4.graph")],
    ["pack", "cartesian", str(GOLDEN / "k4.graph"), str(GOLDEN / "c6.graph")]])
def test_oracle_work_is_checked_before_the_search(capsys, monkeypatch, argv):
    # K4's work is 6 * floor(6 / 3) = 12 units; C6's, 6 * 1 = 6, stays under
    monkeypatch.setattr("treepack.oracle.MAX_ORACLE_WORK", 11)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == "error: oracle work m*floor(m/(n-1)) would be 12, more than 11\n"
    assert peak < 1_000_000


def test_oracle_rejects_disconnected(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 4 2\ne 0 1\ne 2 3\n")
    code, _, err = run(capsys, "oracle", str(bad))
    assert code == 2 and "error:" in err


def test_table_reports_loose_bounds_without_failing(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.splitlines()
    k5row = next(l for l in lines if l.startswith("K5 x C4"))
    assert "bound<sigma" in k5row
    assert " 2 " in k5row and " 3 " in k5row
    assert not any("!!" in l for l in lines)


def _one_failing_table_row(monkeypatch):
    """Every catalogue row passes, so a row with a wrong closed form is the
    only way to run the failure branch: K4 packs 2 trees, not 5."""
    from treepack import catalogue
    row = ("K4", None, catalogue.complete(4), None, 5, False)
    monkeypatch.setattr(catalogue, "table_rows", lambda: [row])


def test_table_reports_a_failing_row(capsys, monkeypatch):
    _one_failing_table_row(monkeypatch)
    # Two more rows run table's other two rules: K5 x C4 builds 2 trees
    # against sigma 3 but is marked tight, and K4 x K4's oracle is made to
    # report 2, one tree fewer than the construction builds.
    from treepack import catalogue, oracle
    from treepack.products import CARTESIAN
    rows = catalogue.table_rows() + [
        ("K5 x C4", CARTESIAN, catalogue.complete(5), catalogue.cycle(4),
         None, True),
        ("K4 x K4", CARTESIAN, catalogue.complete(4), catalogue.complete(4),
         None, False)]
    monkeypatch.setattr(catalogue, "table_rows", lambda: rows)
    exact = oracle.max_packing

    def one_short_on_k4xk4(g):
        result = exact(g)
        return result._replace(sigma=result.sigma - 1) if g.n == 16 else result
    monkeypatch.setattr(oracle, "max_packing", one_short_on_k4xk4)
    code, out, err = run(capsys, "table")
    assert code == 1
    assert "!! oracle 2 != closed form 5" in out
    assert out.splitlines()[2:] == [
        "K4                5     -     2        -  no construction"
        "  !! oracle 2 != closed form 5",
        "K5 x C4           -     2     3      yes  bound<sigma"
        "  !! expected tight, bound 2 != oracle 3",
        "K4 x K4           -     3     2      yes  bound>sigma"
        "  !! bound 3 exceeds oracle 2"]
    # the run record alone names the failing rows
    assert len(err.splitlines()) == 1
    failed = ["K4", "K5 x C4", "K4 x K4"]
    record = json.loads(err)
    assert record["verified"] is False and record["outputs"]["failed"] == failed
    code, out, err = run(capsys, "table", "--format", "json")
    assert code == 1
    assert json.loads(out)[0]["failures"] == ["oracle 2 != closed form 5"]
    assert [r["failures"] for r in json.loads(out)[1:]] == [
        ["expected tight, bound 2 != oracle 3"], ["bound 3 exceeds oracle 2"]]
    record = json.loads(err)
    assert record["verified"] is False and record["outputs"]["failed"] == failed


def test_table_has_no_strict_option(capsys, monkeypatch):
    """Any failing row fails `table`, so there is no --strict to ask for it."""
    from treepack import catalogue
    monkeypatch.setattr(catalogue, "_run_table_row", None)   # no row may run
    with pytest.raises(SystemExit) as exc:
        main(["table", "--strict"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "unrecognized arguments: --strict" in err


def test_table_json_rows(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_name = {r["graph"]: r for r in rows}
    assert by_name["K4 x K4"]["sigma"] == 3
    assert by_name["K4 x K4"]["bound"] == 3
    assert by_name["K5 x C4"]["bound"] == 2
    assert by_name["K5 x C4"]["sigma"] == 3
    assert by_name["K3(2)"]["bound"] is None
    assert all(r["failures"] == [] for r in rows)


def test_stdout_deterministic(capsys, tmp_path):
    k4 = tmp_path / "k4.txt"
    run(capsys, "gen", "complete", "4", "--out", str(k4))
    _, out1, _ = run(capsys, "oracle", str(k4), "--format", "json")
    _, out2, _ = run(capsys, "oracle", str(k4), "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("argv, outputs, verified", [
    (["gen", "multipartite", "3", "2"], {"n", "m", "out"}, None),
    (["product", "lex", "p3.graph", "k4.graph"], {"n", "m", "out"}, None),
    (["pack", "cartesian", "k4.graph", "c6.graph"], {"trees", "bound", "out"}, True),
    (["oracle", "k6.graph"], {"sigma", "bound"}, True),
    (["table"], {"rows", "failed"}, True),
    (["table"], {"rows", "failed"}, False),
    (["verify", "k4xc6.pack.json.graph", "k4xc6.pack.json"], {"trees"}, True),
    (["verify", "k1.graph", "k1.two.json"], {"trees"}, False),
], ids=["gen", "product", "pack", "oracle", "table", "table-failing",
        "verify-pass", "verify-fail"])
def test_run_record_on_stderr(capsys, monkeypatch, argv, outputs, verified):
    """Every command ends in one run record on stderr, and exits 1 exactly
    when the record says it failed verification."""
    monkeypatch.chdir(GOLDEN)
    if argv[0] == "table" and verified is False:
        _one_failing_table_row(monkeypatch)
    code, _, err = run(capsys, *argv)
    record = json.loads(err.splitlines()[-1])
    assert sorted(record) == ["command", "inputs", "outputs", "verified",
                              "wall_time_s"]
    assert record["command"] == argv[0]
    assert record["inputs"] == list(takewhile(lambda w: w[:2] != "--", argv[1:]))
    assert set(record["outputs"]) == outputs
    assert record["verified"] is verified
    assert code == (1 if verified is False else 0)


@pytest.mark.parametrize("argv", [
    ["gen", "path", "3"],
    ["product", "lex", "p3.graph", "k4.graph"],
], ids=["gen", "product"])
def test_out_takes_the_edge_list_whatever_the_format(capsys, monkeypatch,
                                                    tmp_path, argv):
    monkeypatch.chdir(GOLDEN)
    _, printed, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == printed and printed.startswith("#")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_out_writes_the_record_and_still_prints(capsys, monkeypatch,
                                                       tmp_path, fmt):
    monkeypatch.chdir(GOLDEN)
    _, printed, _ = run(capsys, "oracle", "k6.graph", "--format", fmt)
    target = tmp_path / "k6.oracle.json"
    code, out, _ = run(capsys, "oracle", "k6.graph", "--format", fmt,
                       "--out", str(target))
    assert code == 0 and out == printed
    assert target.read_bytes() == (GOLDEN / "k6.oracle.json").read_bytes()
    if fmt == "text":
        assert [line.split()[0] for line in out.splitlines()] == [
            "sigma", "certificate:", "packing:"]


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_failed_stdout_write_is_a_usage_style_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    code = main(["gen", "path", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", str(GOLDEN / "k6.graph"), str(GOLDEN / "k6.factor.json")],
    ["table"],
])
def test_out_is_a_usage_error_where_nothing_is_written(capsys, tmp_path, argv):
    # verify and table print their report; they take no --out
    target = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(target)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not target.exists()


_PARSER = _build_parser()


def _argparse(argv):
    """argparse's namespace for argv, or None where it exits (help or error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return _PARSER.parse_args(argv, SimpleNamespace())
        except SystemExit:
            return None


# Every word the grammar names, then words argparse reads in its own ways.
_WORDS = sorted({word for command, (_, _, arguments) in COMMANDS.items()
                 for name, kw in arguments
                 for word in (command, name, *map(str, kw.get("choices", ())))})
_VALUES = ["2", "3", "+3", "1_0", "\u0663", "", "g.graph"]
_ODD = ["-h", "--help", "--", "-", "--form", "--fact", "--out=x", "--strict=1",
        "-3", *_VALUES]
_TOKEN = st.sampled_from(_WORDS + _ODD) | st.text(max_size=3)


@st.composite
def _command_lines(draw):
    """Any token list, or a command line in plain form with up to two tokens
    inserted (words drawn mostly from the right argument's choices)."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(_TOKEN, max_size=8))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for name, kw in COMMANDS[command][2]:
        words = st.sampled_from([*map(str, kw.get("choices", _VALUES)), "4"])
        if name[0] != "-":
            argv += draw(st.lists(words, min_size=1, max_size=3 if "nargs" in kw else 1))
        elif draw(st.booleans()):
            argv += [name, draw(words)]
    for _ in range(max(0, draw(st.integers(-2, 2)))):
        argv.insert(draw(st.integers(1, len(argv))), draw(_TOKEN))
    return argv


@settings(max_examples=800, deadline=None)
@given(_command_lines())
@example(["gen", "path", "3", "--format", "gen", "--format", "json"])
@example(["gen", "multipartite", "3", "--format", "json", "2"])
def test_plain_parse_is_argparse_or_declines(argv):
    """argparse is the reference: where the plain parser answers, argparse
    accepts the command line and builds the same namespace."""
    plain = _parse_plain(argv)
    if plain is not None:
        expected = _argparse(argv)
        assert expected is not None and vars(plain) == vars(expected)


@pytest.mark.parametrize("argv", [
    # README
    ["gen", "complete", "4", "--out", "k4.txt"],
    ["gen", "multipartite", "3", "2"],
    ["pack", "lex", "p3.txt", "k4.txt"],
    ["oracle", "k4.txt"],
    ["table"],
    # perfbench's pack-oracle op, and --out on product
    ["pack", "cartesian", "g.txt", "h.txt", "--format", "json"],
    ["product", "cartesian", "g.txt", "h.txt", "--out", "p.txt"],
    # every pinned command line but help and usage errors
    *(list(row.argv) for row in ROWS if row.code != 2 and "--help" not in row.argv),
])
def test_plain_parse_takes_every_documented_command_line(argv):
    plain = _parse_plain(argv)
    assert plain is not None and vars(plain) == vars(_argparse(argv))
