"""Each CLI command imports only the treepack modules it runs.

Every case runs in a fresh interpreter, because the test process has
already imported the whole package.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treepack
from treepack import cli
from treepack.catalogue import FAMILIES
from treepack.cli import COMMANDS, main
from treepack.products import CARTESIAN, LEXICOGRAPHIC

SRC = Path(treepack.__file__).resolve().parents[1]

# Runs main(argv) and prints the treepack modules loaded and which of
# dataclasses, argparse and gettext were; --help and usage errors exit
# through SystemExit.
PROBE = """
import contextlib, io, json, sys
from treepack.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code,
                  "stdlib": [m for m in ("dataclasses", "argparse", "gettext")
                             if m in sys.modules],
                  "modules": sorted(m[len("treepack."):] for m in sys.modules
                                    if m.startswith("treepack."))}))
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """K4 and C4 graph files, with their oracle packings as packing files."""
    d = tmp_path_factory.mktemp("imports")
    for name, family in (("k4", ["complete", "4"]), ("c4", ["cycle", "4"])):
        assert main(["gen", *family, "--out", str(d / f"{name}.graph")]) == 0
        assert main(["oracle", str(d / f"{name}.graph"), "--format", "json",
                     "--out", str(d / f"{name}.json")]) == 0
        record = json.loads((d / f"{name}.json").read_text())
        (d / f"{name}.pack").write_text(json.dumps(record["packing"]))
    return d


GIVEN = ["--factor-packing", "k4.pack", "--factor-packing", "c4.pack"]
CONSTRUCTION = ["core", "products", "verify"]
CASES = [
    (["--help"], []),
    (["gen", "cycle", "5"], ["catalogue", "core"]),
    (["product", "lex", "k4.graph", "c4.graph"], ["core", "products"]),
    (["verify", "k4.graph", "k4.pack"], ["core", "verify"]),
    (["oracle", "k4.graph"], ["core", "oracle", "verify"]),
    (["pack", "cartesian", "k4.graph", "c4.graph"],
     ["cartesian", "oracle"] + CONSTRUCTION),
    (["pack", "cartesian", "k4.graph", "c4.graph", *GIVEN],
     ["cartesian"] + CONSTRUCTION),
    (["pack", "lex", "k4.graph", "c4.graph", *GIVEN], ["lex"] + CONSTRUCTION),
    (["table"], ["cartesian", "catalogue", "lex", "oracle"] + CONSTRUCTION),
]


@pytest.mark.parametrize("argv, loaded", CASES,
                         ids=[" ".join(argv) for argv, _ in CASES])
def test_command_loads_only_the_modules_it_runs(files, argv, loaded):
    result = json.loads(_python(PROBE, *argv, cwd=files))
    assert result["code"] == 0
    # a plain command line is parsed without argparse (and its gettext)
    assert result["stdlib"] == (["argparse", "gettext"] if argv == ["--help"] else [])
    assert result["modules"] == sorted(["cli"] + loaded)


def test_each_handler_lives_in_the_module_commands_names():
    """``cli`` is the entry, the grammar and the one exit path: a command
    compiles its handler's module, not every handler."""
    assert [name for name in vars(cli) if name.startswith("cmd_")] == []
    for command, (home, _, _) in COMMANDS.items():
        module = importlib.import_module(f"treepack.{home}")
        assert callable(getattr(module, f"cmd_{command}")), command


def test_spelled_out_names_equal_their_homes():
    """The grammar spells the family names and the product kinds out, so
    parsing imports nothing; each list equals its home's, order included."""
    assert cli.FAMILY_NAMES == tuple(sorted(FAMILIES))
    assert dict(COMMANDS["gen"][2])["family"]["choices"] == cli.FAMILY_NAMES
    assert dict(cli.FILES)["kind"]["choices"] == (CARTESIAN, LEXICOGRAPHIC)


@pytest.mark.parametrize("argv", [["pack", "nosuch", "k4.graph", "c4.graph"],
                                  ["gen", "path", "+3"]])
def test_usage_error_loads_argparse_and_no_treepack_module(files, argv):
    result = json.loads(_python(PROBE, *argv, cwd=files))
    assert result["code"] == 2
    assert result["stdlib"] == ["argparse", "gettext"]
    assert result["modules"] == ["cli"]


@pytest.mark.parametrize("role", ["first", "second"])
def test_pack_lex_refuses_a_one_vertex_factor_without_loading_the_oracle(
        files, tmp_path, role):
    k1 = tmp_path / "k1.graph"
    assert main(["gen", "path", "1", "--out", str(k1)]) == 0
    graphs = [str(k1), "k4.graph"] if role == "first" else ["k4.graph", str(k1)]
    result = json.loads(_python(PROBE, "pack", "lex", *graphs, cwd=files))
    assert result["code"] == 2
    assert result["modules"] == ["cli", "core", "lex", "products", "verify"]


def test_bare_package_import_loads_no_module(tmp_path):
    out = _python("import sys, treepack; "
                  "print(sorted(m for m in sys.modules if m.startswith('treepack')))",
                  cwd=tmp_path)
    assert out.strip() == "['treepack']"


def test_treepack_cartesian_is_always_the_module(files):
    out = _python("""
import types
from treepack import cartesian as before
import treepack.cartesian as via_import
from treepack.cli import main
assert main(["pack", "cartesian", "k4.graph", "c4.graph"]) == 0
import treepack
import treepack.cartesian as after
assert isinstance(before, types.ModuleType), before
assert via_import is before and after is before and treepack.cartesian is before
print("ok")
""", cwd=files)
    assert out.splitlines()[-1] == "ok"


def test_every_private_function_class_and_method_is_used():
    """Unused code still costs its compile in every command that loads its
    module: each private top-level function or class, and each private
    method, is named somewhere in src/ besides its own definition."""
    defined, named = [], set()
    for path in sorted((SRC / "treepack").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and d.name.startswith("_") and not d.name.endswith("__")):
                    defined.append((path.name, d.name))
        named.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        named.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute))
    assert [f"{file} {name}" for file, name in defined if name not in named] == []


def test_no_module_imports_a_name_it_never_uses():
    """An unused import still costs its compile and load in every command."""
    unused = []
    for path in sorted((SRC / "treepack").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno} {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
