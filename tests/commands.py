"""The pinned command lines of ``tests/golden/commands.txt``.

The comment at the top of that file gives the format.  ``ROWS`` holds its
rows.  ``Row.argv_in`` fills in a row's output directory, and ``Row.check``
checks what the row's command did, however it was run.

Run as a script, it checks every row of one treepack command in child
processes, each row in a fresh output directory::

    python tests/commands.py treepack
    PYTHONPATH=src python tests/commands.py python -m treepack.cli

The children run in ``tests/golden`` with the caller's environment, except
that each relative ``PYTHONPATH`` entry is made absolute against the caller's
working directory, so ``src`` above still names the checkout's package.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

GOLDEN = Path(__file__).parent / "golden"
OUT = "$OUT/"


class Row(NamedTuple):
    code: int
    golden: str
    argv: tuple[str, ...]

    def __str__(self) -> str:
        """The command and the golden it is checked against, or the argv."""
        outs = [word[len(OUT):] for word in self.argv if word.startswith(OUT)]
        pinned = outs[0] if outs else self.golden
        return " ".join(self.argv) if pinned == "-" else f"{self.argv[0]} {pinned}"

    def argv_in(self, out: Path) -> list[str]:
        """The argv with each ``$OUT/NAME`` a file in directory out."""
        return [str(out / word[len(OUT):]) if word.startswith(OUT) else word
                for word in self.argv]

    def check(self, out: Path, code: int, stdout: bytes, stderr: bytes) -> None:
        """Check the exit code, stdout, stderr and files of one run."""
        assert code == self.code, stderr.decode()
        if self.golden != "-":
            assert stdout == (GOLDEN / self.golden).read_bytes()
        if code == 2:
            assert stdout == b"" and b"invalid" in stderr
        for word in self.argv:
            if word.startswith(OUT):
                name = word[len(OUT):]
                assert stdout == b""
                assert (out / name).read_bytes() == (GOLDEN / name).read_bytes()
                if (GOLDEN / f"{name}.graph").exists():
                    assert ((out / f"{name}.graph").read_bytes()
                            == (GOLDEN / f"{name}.graph").read_bytes())


ROWS = [Row(int(words[0]), words[1], tuple(words[2:]))
        for words in map(str.split, (GOLDEN / "commands.txt").read_text().splitlines())
        if words and words[0][0] != "#"]


def child_env() -> dict[str, str]:
    """The caller's environment with every PYTHONPATH entry made absolute."""
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            map(os.path.abspath, env["PYTHONPATH"].split(os.pathsep)))
    return env


def main(command: list[str]) -> int:
    """Run ``command + row.argv_in(out)`` for every row in the golden
    directory; print each failing row and the pass count, and return 1 if any
    row failed."""
    if not command or not __debug__:   # Row.check asserts
        print("usage: python tests/commands.py CMD... (not under -O)", file=sys.stderr)
        return 2
    passed, env = 0, child_env()
    for row in ROWS:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            done = subprocess.run([*command, *row.argv_in(out)], cwd=GOLDEN,
                                  env=env, capture_output=True, timeout=300)
            try:
                row.check(out, done.returncode, done.stdout, done.stderr)
                passed += 1
            except AssertionError as exc:
                print(f"FAIL {row}: {str(exc).strip()}")
    print(f"{passed} of {len(ROWS)} rows pass")
    return 0 if passed == len(ROWS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
