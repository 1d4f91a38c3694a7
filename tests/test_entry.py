"""The process entry: ``python -m treepack.cli`` and the ``treepack`` script.

The other CLI tests call ``main`` in this process.  These run the entry in a
child process, as a user does, and check what it adds around ``main``: the
cyclic collector is off and the start-up heap frozen.  They also check that
``-m`` compiles ``cli`` once: no handler imports it as ``treepack.cli``.
"""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treepack
from treepack.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(treepack.__file__).resolve().parents[1]

# The target of the installed script, as pyproject.toml declares it.
SCRIPT = re.search(r'^treepack = "([\w.]+):(\w+)"$',
                   (SRC.parent / "pyproject.toml").read_text(), re.M)

# Prints the collector's state at exit, after the command ran, and whether
# treepack.cli was imported, as the last line of stderr.  Each entry starts
# the command as its real counterpart does: the module under runpy, as `-m`
# runs it, or the script's target, called as the installed wrapper calls it.
PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("gc", gc.isenabled(), gc.get_freeze_count(),
                              "treepack.cli" in sys.modules, file=sys.stderr))
"""
ENTRIES = {
    "module": PROBE + "import runpy\n"
              "runpy.run_module('treepack.cli', run_name='__main__')\n",
    "script": PROBE + f"from {SCRIPT[1]} import {SCRIPT[2]}\n"
                      f"sys.exit({SCRIPT[2]}())\n",
}


def _child(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def _cli(*argv: str, cwd: Path = GOLDEN) -> subprocess.CompletedProcess:
    return _child(["-m", "treepack.cli", *argv], cwd)


@pytest.mark.parametrize("name, kind, g, h", [
    ("k4xc6", "cartesian", "k4", "c6"),
    ("p3lexk4", "lex", "p3", "k4"),
])
def test_child_process_outputs_match_goldens(tmp_path, name, kind, g, h):
    out = tmp_path / f"{name}.pack.json"
    done = _cli("pack", kind, f"{g}.graph", f"{h}.graph",
                "--factor-packing", f"{g}.factor.json",
                "--factor-packing", f"{h}.factor.json", "--out", str(out))
    assert done.returncode == 0 and done.stdout == b""
    for suffix in ("", ".graph"):
        pinned = GOLDEN / f"{name}.pack.json{suffix}"
        assert Path(f"{out}{suffix}").read_bytes() == pinned.read_bytes()
    done = _cli("verify", f"{name}.pack.json.graph", f"{name}.pack.json",
                "--format", "json")
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / f"{name}.verify.json").read_bytes()


@pytest.mark.parametrize("name", ["k4xc6", "k6"])
def test_child_process_oracle_matches_golden(name):
    done = _cli("oracle", f"{name}.graph", "--format", "json")
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / f"{name}.oracle.json").read_bytes()


@pytest.mark.parametrize("packing, code, head", [
    ('{"trees": [[]]}', 0, b"PASS packing of 1 trees"),
    ('{"trees": [[], []]}', 1, b"FAIL packing of 2 trees"),
    ('{"trees": [[]]', 2, b""),
], ids=["pass", "fail", "malformed"])
def test_child_process_exit_codes(tmp_path, packing, code, head):
    (tmp_path / "k1.graph").write_text("p 1 0\n")
    (tmp_path / "k1.json").write_text(packing)
    done = _cli("verify", "k1.graph", "k1.json", cwd=tmp_path)
    assert done.returncode == code
    assert done.stdout.startswith(head)
    assert done.stderr.startswith(b"error: k1.json: ") is (code == 2)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("argv, code", [
    (["verify", "k4xc6.pack.json.graph", "k4xc6.pack.json"], 0),
    (["verify", "k4xc6.graph", "missing.json"], 2),
    (["pack", "cartesian", "k4.graph", "c6.graph", "--factor-packing",
      "k4.factor.json", "--factor-packing", "c6.factor.json"], 0),
    (["pack", "lex", "p3.graph", "k4.graph"], 0),
    (["oracle", "k6.graph"], 0),
], ids=["ok", "usage-error", "pack-given", "pack-oracle", "oracle"])
def test_entry_runs_with_collector_off_and_heap_frozen(entry, argv, code):
    done = _child(["-c", ENTRIES[entry], *argv], GOLDEN)
    assert done.returncode == code
    state = done.stderr.decode().splitlines()[-1].split()
    assert state[:2] == ["gc", "False"] and int(state[2]) > 0
    # under -m the entry runs as __main__, not as treepack.cli: a handler
    # that imported treepack.cli would compile and run it a second time
    assert state[3] == str(entry == "script")


def test_main_in_process_leaves_gc_state_alone(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    for argv, code in ((["oracle", str(GOLDEN / "k6.graph")], 0),
                       (["verify", str(GOLDEN / "k6.graph"), "missing.json"], 2)):
        assert main(argv) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    capsys.readouterr()
