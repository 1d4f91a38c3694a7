"""Command line interface: generate, compose, pack, verify, tabulate.

This module is the process entry, the grammar and the one exit path.  Each
command's handler, ``cmd_<command>``, lives in the module that ``COMMANDS``
names for it, beside the code it runs; ``main`` imports that module, so a
command compiles no other command's code.  A handler writes its ``--out``
files and returns ``(text, record, outputs, verified)``: ``main`` prints
``text``, or ``record`` under ``--format json`` (nothing if ``text`` is None),
writes the run record to stderr and exits 1 iff ``verified`` is False.
argparse loads only for ``--help`` and usage errors.  No module imports this
one: under ``python -m`` it runs as ``__main__``, and a second import would
compile and run it again.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, NoReturn, Sequence

if TYPE_CHECKING:
    import argparse


def _decimal(text: str) -> int:
    """A ``gen`` parameter: ASCII digits after an optional ``-``, as in graph files."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(text)


_decimal.__name__ = "int"   # the type argparse names in "invalid int value"
OUT = ("--out", {"help": "write the primary artifact to this path"})
FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
# kinds (products.CARTESIAN and LEXICOGRAPHIC) and families (sorted
# catalogue.FAMILIES), spelled out so parsing imports nothing
FILES = ("kind", {"choices": ("cartesian", "lex")}), ("fileG", {}), ("fileH", {})
FAMILY_NAMES = ("complete", "complete-minus-edge", "cycle", "hypercube",
                "multipartite", "path")
# command -> (home module of cmd_<command>, help,
#             (name, argparse keyword arguments) per argument)
COMMANDS = {
    "gen": ("catalogue", "generate a named graph family",
            (("family", {"choices": FAMILY_NAMES}),
             ("params", {"nargs": "+", "type": _decimal}), OUT, FORMAT)),
    "product": ("products", "compose two graphs", (*FILES, OUT, FORMAT)),
    "pack": ("products", "build a spanning tree packing of a product",
             (*FILES, ("--factor-packing", {
                 "action": "append", "metavar": "PATH",
                 "help": "packing file for a factor; give once for the first "
                         "factor, twice for both"}), OUT, FORMAT)),
    "oracle": ("oracle", "exact packing number with certificate",
               (("file", {}), OUT, FORMAT)),
    "verify": ("verify", "check a packing file against a graph",
               (("graphfile", {}), ("packingfile", {}), FORMAT)),
    "table": ("catalogue", "closed form vs construction vs oracle", (FORMAT,)),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="treepack",
        description="Edge-disjoint spanning tree packings of product graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
    return parser


def _parse_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a plain command line, else None: plain is
    the command, exactly its positionals, then whole ``--option value`` pairs.
    argparse parses all else, so its messages stay its own."""
    if not argv or argv[0] not in COMMANDS:
        return None
    values: dict[str, Any] = {"command": argv[0]}
    words, options, i = [*argv, "-"], {}, 1   # the "-" is refused where words run out
    try:
        for name, kw in COMMANDS[argv[0]][2]:
            if name[0] == "-":
                dest = name[2:].replace("-", "_")
                options[name], values[dest] = (dest, kw), kw.get("default")
                continue
            end = i + 1
            while "nargs" in kw and end < len(argv) and argv[end][:1] != "-":
                end += 1
            given = [_value(w, kw) for w in words[i:end]]
            values[name], i = given if "nargs" in kw else given[0], end
        while words[i] in options:
            dest, kw = options[words[i]]
            value = _value(words[i + 1], kw)
            if kw.get("action") == "append":
                value = (values[dest] or []) + [value]
            values[dest], i = value, i + 2
    except ValueError:
        return None
    return SimpleNamespace(**values) if i == len(argv) else None


def _value(word: str, kw: dict[str, Any]) -> Any:
    """``word`` as argparse stores it for this argument; ValueError if it would object."""
    value = kw.get("type", str)(word)
    if word[:1] == "-" or value not in kw.get("choices", (value,)):
        raise ValueError(word)
    return value


def main(argv: Sequence[str] | None = None) -> int:
    args = (_parse_plain(sys.argv[1:] if argv is None else argv)
            or _build_parser().parse_args(argv, SimpleNamespace()))
    t0 = time.perf_counter()
    home, _, arguments = COMMANDS[args.command]
    handler = getattr(import_module(f".{home}", __package__), f"cmd_{args.command}")
    import json
    from .core import (ContractError, InputError, ParameterError, ParseError,
                       SizeError, _dump)
    try:
        text, record, outputs, verified = handler(args)
        if text is not None:
            sys.stdout.write(text if args.format == "text" else _dump(record) + "\n")
            sys.stdout.flush()   # a buffered write fails here, not at exit
        inputs = [str(w) for name, kw in arguments if name[0] != "-" for w in
                  (getattr(args, name) if "nargs" in kw else [getattr(args, name)])]
        print(json.dumps({"command": args.command, "inputs": inputs,
                          "outputs": outputs, "verified": verified,
                          "wall_time_s": round(time.perf_counter() - t0, 3)},
                         sort_keys=True), file=sys.stderr)
    except (ParameterError, ParseError, InputError, ContractError, SizeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if verified is False else 0


def run() -> NoReturn:
    """Process entry of ``python -m treepack.cli`` and the ``treepack`` script.

    A command leaves no cyclic garbage worth collecting (its graphs, trees and
    records are acyclic), so the cyclic collector is switched off and the
    process ends without interpreter finalisation.
    ``main`` leaves GC state alone, for callers that run it in their process.
    """
    gc.disable()
    try:
        code = main()
    except SystemExit as exc:   # argparse's --help and usage errors
        code = exc.code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:   # main flushed its output: this is argparse's
        code = code or 2
    os._exit(code or 0)


if __name__ == "__main__":
    run()
