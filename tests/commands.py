"""The pinned command lines of ``tests/golden/commands.txt``.

The comment at the top of that file gives the format.  ``ROWS`` holds its
rows.  ``Row.argv_in`` fills in a row's output directory, and ``Row.check``
checks what the row's command did, however it was run.
"""

from __future__ import annotations

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
