"""The process entry: ``python -m treepack.cli`` and the ``treepack`` script.

The other CLI tests call ``main`` in this process.  These run the entry in a
child process, as a user does, and check what it adds around ``main``: the
cyclic collector is off, and output is flushed and ``atexit`` handlers run
before the process ends without finalisation.  They
also check that ``-m`` compiles ``cli`` once: no handler imports it as
``treepack.cli``.
Every pinned command line of ``tests/golden/commands.txt`` runs here through
the script's target, the one path that imports ``cli`` rather than running
it as ``__main__``.
"""

import gc
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import commands
import treepack
from commands import GOLDEN, ROWS
from treepack.cli import main

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
atexit.register(lambda: print("gc", gc.isenabled(), "treepack.cli" in sys.modules,
                              file=sys.stderr))
"""
ENTRIES = {
    "module": PROBE + "import runpy\n"
              "runpy.run_module('treepack.cli', run_name='__main__')\n",
    "script": PROBE + f"from {SCRIPT[1]} import {SCRIPT[2]}\n"
                      f"sys.exit({SCRIPT[2]}())\n",
}


def _env(buffered: bool = False) -> dict[str, str]:
    """The test's environment for a child; ``buffered`` drops PYTHONUNBUFFERED,
    so stdout is block-buffered when it is not a terminal, as by default."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def _child(argv: list[str], cwd: Path, buffered: bool = False
           ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=_env(buffered),
                          capture_output=True, timeout=120)


# Every row through the script's target, and the rows of the commands the
# benchmark runs through `-m` as well.  The `-m` rows run with stdout
# buffered, as the benchmark's children may: the process must flush before
# it ends.
CHILD_ROWS = [(entry, row) for row in ROWS for entry in sorted(ENTRIES)
              if entry == "script" or row.argv[0] in ("pack", "verify", "oracle")]


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory):
    """The child of each of CHILD_ROWS, two running at a time: interpreter
    start-up, not the command, is most of each one's time."""
    with ThreadPoolExecutor(2) as pool:
        runs = {}
        for entry, row in CHILD_ROWS:
            out = tmp_path_factory.mktemp("out")
            runs[entry, row] = out, pool.submit(
                _child, ["-c", ENTRIES[entry], *row.argv_in(out)], GOLDEN,
                entry == "module")
        yield runs


@pytest.mark.parametrize("entry, row", CHILD_ROWS,
                         ids=[f"{row}-{entry}" for entry, row in CHILD_ROWS])
def test_pinned_command_line(pinned_runs, entry, row):
    """Each row of tests/golden/commands.txt, in a child process."""
    out, run = pinned_runs[entry, row]
    done = run.result()
    row.check(out, done.returncode, done.stdout, done.stderr)


# The malformed case's stderr, and the passing case, are not table rows.
@pytest.mark.parametrize("packing, code, head", [
    ('{"trees": [[]]}', 0, b"PASS packing of 1 trees"),
    ('{"trees": [[]]', 2, b""),
], ids=["pass", "malformed"])
def test_child_process_exit_codes(tmp_path, packing, code, head):
    (tmp_path / "k1.graph").write_text("p 1 0\n")
    (tmp_path / "k1.json").write_text(packing)
    done = _child(["-m", "treepack.cli", "verify", "k1.graph", "k1.json"], tmp_path)
    assert done.returncode == code
    assert done.stdout.startswith(head)
    assert done.stderr.startswith(b"error: k1.json: ") is (code == 2)


def test_commands_script_takes_a_relative_pythonpath(monkeypatch, capsys):
    """``PYTHONPATH=src python tests/commands.py python -m treepack.cli`` from
    the checkout's root: the rows' children run in tests/golden, where the
    relative ``src`` would name nothing."""
    monkeypatch.chdir(SRC.parent)
    monkeypatch.setenv("PYTHONPATH", SRC.name)
    monkeypatch.setattr(commands, "ROWS", ROWS[:1])
    assert commands.main([sys.executable, "-m", "treepack.cli"]) == 0
    assert capsys.readouterr().out == "1 of 1 rows pass\n"


@pytest.mark.parametrize("argv, stderr", [
    (["gen", "complete", "5"], b"error: [Errno 32] Broken pipe\n"),
    (["--help"], b""),
], ids=["command", "help"])
def test_closed_stdout_exits_2_without_traceback(tmp_path, argv, stderr):
    """A buffered write to a closed pipe fails only when the buffer flushes:
    ``main`` flushes where it reports errors, and the entry ends nonzero, not
    with a traceback, when only --help output is left to flush."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "treepack.cli", *argv],
                              cwd=tmp_path, env=_env(buffered=True), stdout=write,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, stderr)


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
    # The entry no longer freezes the heap: with the collector off and no
    # finalisation, no collection runs to skip it.  The name is kept as the
    # test's id.
    done = _child(["-c", ENTRIES[entry], *argv], GOLDEN)
    assert done.returncode == code
    state = done.stderr.decode().splitlines()[-1].split()
    assert state[:2] == ["gc", "False"]
    # under -m the entry runs as __main__, not as treepack.cli: a handler
    # that imported treepack.cli would compile and run it a second time
    assert state[2] == str(entry == "script")


def test_main_in_process_leaves_gc_state_alone(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    for argv, code in ((["oracle", str(GOLDEN / "k6.graph")], 0),
                       (["verify", str(GOLDEN / "k6.graph"), "missing.json"], 2)):
        assert main(argv) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    capsys.readouterr()
