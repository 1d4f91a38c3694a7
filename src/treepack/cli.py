"""Command line interface: generate, compose, pack, verify, tabulate.

Stdout carries the requested artifact (edge list, packing record, report,
table) and is byte-identical across runs of the same command; a one-line run
record with wall time goes to stderr.

Each ``cmd_*`` imports the modules it runs, so a command loads no module it
does not use; argparse loads only for ``--help`` and usage errors.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    import argparse

    from .catalogue import TableRow
    from .core import Graph, TreePacking

# CLI family name -> (constructor in treepack.core, parameter count)
FAMILIES = {
    "path": ("path", 1),
    "cycle": ("cycle", 1),
    "complete": ("complete", 1),
    "multipartite": ("complete_multipartite", 2),
    "hypercube": ("hypercube", 1),
    "complete-minus-edge": ("complete_minus_edge", 1),
}


def _emit_run_record(args: SimpleNamespace, inputs: list[str],
                     outputs: dict[str, Any], verified: bool | None) -> None:
    record = {"command": args.command, "inputs": inputs, "outputs": outputs,
              "verified": verified,
              "wall_time_s": round(time.perf_counter() - args.t0, 3)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def _dump(record: Any) -> str:
    # a record is tuples, lists and dicts built here, never containing itself
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      check_circular=False)


def _write_out(path_: str, text: str) -> None:
    with open(path_, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_text(path_: str) -> str:
    with open(path_, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            from .core import ParseError
            raise ParseError(f"{path_}: not UTF-8 text ({exc.reason})") from None


def _graph_record(g: Graph) -> dict[str, Any]:
    return {"n": g.n, "m": g.m, "edges": g.edges}


def _packing_record(graph_ref: str, packing: TreePacking,
                    verified: bool) -> dict[str, Any]:
    """A packing file; its bound is its tree count (sigma for the oracle)."""
    return {
        "graph": graph_ref,
        "method": packing.method,
        "bound": len(packing.trees),
        "trees": packing.trees,
        "verified": verified,
    }


def _load_packing(path_: str, host: Graph) -> TreePacking:
    """Check a packing file's shape only: ``pack_*`` and ``verify`` check its trees."""
    from .core import ParseError, TreePacking
    text = _read_text(path_)
    try:
        record = json.loads(text)
    except RecursionError:
        raise ParseError(f"{path_}: JSON nested too deeply") from None
    except ValueError as exc:   # not JSON, or an integer past int()'s digit limit
        raise ParseError(f"{path_}: {exc}") from None
    if not isinstance(record, dict) or not isinstance(record.get("trees"), list):
        raise ParseError(f"{path_}: packing needs a \"trees\" list")
    trees = []
    for idx, raw in enumerate(record["trees"]):
        if not isinstance(raw, list):
            raise ParseError(f"{path_}: tree {idx} is not a list of edges")
        edges = []
        for e in raw:
            if type(e) is not list or len(e) != 2:
                raise ParseError(f"{path_}: tree {idx} entry {e!r} is not a [u, v] pair")
            a, b = e
            if type(a) is not int or type(b) is not int:
                raise ParseError(
                    f"{path_}: tree {idx} edge {e!r} has a non-integer vertex")
            edges.append((a, b) if a < b else (b, a))
        edges.sort()
        trees.append(tuple(edges))
    return TreePacking(host, tuple(trees), str(record.get("method", "user")))


def cmd_gen(args: SimpleNamespace) -> int:
    from . import core
    name, count = FAMILIES[args.family]
    if len(args.params) != count:
        raise core.ParameterError(
            f"{name} takes {count} parameter(s), got {len(args.params)}")
    g = getattr(core, name)(*args.params)
    text = core.write_graph(g, [f"family {args.family} {' '.join(map(str, args.params))}"])
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text if args.format == "text" else _dump(_graph_record(g)) + "\n")
    _emit_run_record(args, [args.family] + [str(p) for p in args.params],
                     {"n": g.n, "m": g.m, "out": args.out}, None)
    return 0


def cmd_product(args: SimpleNamespace) -> int:
    from .core import read_graph
    from .products import CARTESIAN, cartesian, lexicographic, write_product
    g = read_graph(_read_text(args.fileG))
    h = read_graph(_read_text(args.fileH))
    p = cartesian(g, h) if args.kind == CARTESIAN else lexicographic(g, h)
    text = write_product(p)
    if args.out:
        _write_out(args.out, text)
    else:
        if args.format == "text":
            sys.stdout.write(text)
        else:
            record = {"kind": p.kind, "n1": p.n1, "n2": p.n2}
            record.update(_graph_record(p.graph))
            sys.stdout.write(_dump(record) + "\n")
    _emit_run_record(args, [args.kind, args.fileG, args.fileH],
                     {"n": p.graph.n, "m": p.graph.m, "out": args.out}, None)
    return 0


def _factor_packings(args: SimpleNamespace, g: Graph,
                     h: Graph) -> tuple[TreePacking, TreePacking]:
    from .core import InputError
    overrides = args.factor_packing or []
    if len(overrides) > 2:
        raise InputError("--factor-packing may be given at most twice (G then H)")
    pg = (_load_packing(overrides[0], g)
          if len(overrides) >= 1 else _oracle_packing(g))
    ph = (_load_packing(overrides[1], h)
          if len(overrides) >= 2 else _oracle_packing(h))
    return pg, ph


def _oracle_packing(g: Graph) -> TreePacking:
    """The oracle's packing, or the single empty tree of a one-vertex graph."""
    from .core import TreePacking
    from .oracle import max_packing
    if g.n == 1:
        return TreePacking(g, ((),))
    return max_packing(g).packing


def _pack(kind: str, g: Graph, h: Graph, pg: TreePacking,
          ph: TreePacking) -> TreePacking:
    """The verified construction for this product kind; imports only its module."""
    from .products import CARTESIAN
    if kind == CARTESIAN:
        from .cartesian import pack_cartesian
        return pack_cartesian(g, h, pg, ph)
    from .lex import pack_lex
    return pack_lex(g, h, pg, ph)


def cmd_pack(args: SimpleNamespace) -> int:
    from .core import read_graph
    from .products import ProductGraph, write_product
    g = read_graph(_read_text(args.fileG))
    h = read_graph(_read_text(args.fileH))
    pg, ph = _factor_packings(args, g, h)
    packed = _pack(args.kind, g, h, pg, ph)
    count = len(packed.trees)
    graph_ref = "-"
    if args.out:
        graph_ref = os.path.basename(args.out) + ".graph"
        product = ProductGraph(args.kind, packed.host, g.n, h.n)
        _write_out(args.out + ".graph", write_product(product))
    record = _packing_record(graph_ref, packed, True)
    if args.out:
        _write_out(args.out, _dump(record) + "\n")
    else:
        if args.format == "text":
            sys.stdout.write(f"packed {args.kind} product: {count} trees "
                             f"(bound {count}), verified=true\n")
        else:
            sys.stdout.write(_dump(record) + "\n")
    _emit_run_record(args, [args.kind, args.fileG, args.fileH],
                     {"trees": count, "bound": count, "out": args.out}, True)
    return 0


def cmd_oracle(args: SimpleNamespace) -> int:
    from .core import read_graph
    from .oracle import max_packing
    from .verify import verify_packing
    g = read_graph(_read_text(args.file))
    result = max_packing(g)
    verified = verify_packing(g, result.packing).overall
    record = {
        "sigma": result.sigma,
        "certificate": {
            "partition": result.certificate.partition,
            "crossing_count": result.certificate.crossing_count,
            "bound": result.certificate.bound,
        },
        "packing": _packing_record(args.file, result.packing, verified),
    }
    if args.out:
        _write_out(args.out, _dump(record) + "\n")
    if args.format == "text":
        cert = result.certificate
        sys.stdout.write(
            f"sigma = {result.sigma}\n"
            f"certificate: {len(cert.partition)} blocks, "
            f"{cert.crossing_count} crossing edges, bound {cert.bound}\n"
            f"packing: {len(result.packing.trees)} trees, "
            f"verified={str(verified).lower()}\n")
    else:
        sys.stdout.write(_dump(record) + "\n")
    _emit_run_record(args, [args.file],
                     {"sigma": result.sigma, "bound": result.certificate.bound},
                     verified)
    return 0 if verified else 1


def cmd_verify(args: SimpleNamespace) -> int:
    from .core import read_graph
    from .verify import verify_packing
    g = read_graph(_read_text(args.graphfile))
    packing = _load_packing(args.packingfile, g)
    report = verify_packing(g, packing)
    if args.format == "text":
        sys.stdout.write(report.render() + "\n")
    else:
        sys.stdout.write(_dump(report.to_record()) + "\n")
    _emit_run_record(args, [args.graphfile, args.packingfile],
                     {"trees": len(packing.trees)}, report.overall)
    return 0 if report.overall else 1


def _run_table_row(row: TableRow) -> dict[str, Any]:
    from .oracle import max_packing
    if row.kind is None:
        host = row.g
        bound = None
        verified = None
    else:
        packed = _pack(row.kind, row.g, row.h, max_packing(row.g).packing,
                       max_packing(row.h).packing)
        host = packed.host
        bound = len(packed.trees)
        verified = True  # _pack verifies, as in cmd_pack
    sigma = max_packing(host).sigma

    failures = []
    if row.closed is not None and sigma != row.closed:
        failures.append(f"oracle {sigma} != closed form {row.closed}")
    if bound is not None and bound > sigma:
        failures.append(f"bound {bound} exceeds oracle {sigma}")
    if row.expect_tight is True and bound != sigma:
        failures.append(f"expected tight, bound {bound} != oracle {sigma}")

    if bound is None:
        note = "no construction"
    elif bound == sigma:
        note = "tight"
    else:
        note = "bound<sigma"
    return {
        "graph": row.label,
        "closed": row.closed,
        "bound": bound,
        "sigma": sigma,
        "verified": verified,
        "note": note,
        "failures": failures,
    }


def cmd_table(args: SimpleNamespace) -> int:
    from .catalogue import table_rows
    rows = [_run_table_row(r) for r in table_rows()]
    if args.format == "text":
        header = f"{'graph':<12} {'closed':>6} {'bound':>5} {'sigma':>5} {'verified':>8}  note"
        lines = [header, "-" * len(header)]
        for r in rows:
            closed = "-" if r["closed"] is None else str(r["closed"])
            bound = "-" if r["bound"] is None else str(r["bound"])
            ver = "-" if r["verified"] is None else "yes"
            note = r["note"]
            if r["failures"]:
                note += "  !! " + "; ".join(r["failures"])
            lines.append(f"{r['graph']:<12} {closed:>6} {bound:>5} "
                         f"{r['sigma']:>5} {ver:>8}  {note}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_dump(rows) + "\n")
    failed = [r["graph"] for r in rows if r["failures"]]
    _emit_run_record(args, [], {"rows": len(rows), "failed": failed}, True)
    if args.strict and failed:
        print(f"strict: failing rows: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _decimal(text: str) -> int:
    """A ``gen`` parameter: ASCII digits after an optional ``-``, as in graph files."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(text)


_decimal.__name__ = "int"   # the type argparse names in "invalid int value"
OUT = ("--out", {"help": "write the primary artifact to this path"})
FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})
# kinds: products.CARTESIAN and LEXICOGRAPHIC, spelled out so parsing imports nothing
FILES = ("kind", {"choices": ("cartesian", "lex")}), ("fileG", {}), ("fileH", {})
# command -> (handler, help, (name, argparse keyword arguments) per argument)
COMMANDS = {
    "gen": (cmd_gen, "generate a named graph family",
            (("family", {"choices": sorted(FAMILIES)}),
             ("params", {"nargs": "+", "type": _decimal}), OUT, FORMAT)),
    "product": (cmd_product, "compose two graphs", (*FILES, OUT, FORMAT)),
    "pack": (cmd_pack, "build a spanning tree packing of a product",
             (*FILES, ("--factor-packing", {
                 "action": "append", "metavar": "PATH",
                 "help": "packing file for a factor; give once for the first "
                         "factor, twice for both"}), OUT, FORMAT)),
    "oracle": (cmd_oracle, "exact packing number with certificate",
               (("file", {}), OUT, FORMAT)),
    "verify": (cmd_verify, "check a packing file against a graph",
               (("graphfile", {}), ("packingfile", {}), FORMAT)),
    "table": (cmd_table, "closed form vs construction vs oracle", (("--strict", {
        "action": "store_true", "default": False,
        "help": "exit nonzero on any unexpected mismatch"}), FORMAT)),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="treepack",
        description="Edge-disjoint spanning tree packings of product graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a plain command line, else None: plain is
    the command, exactly its positionals, then whole ``--option value`` pairs and
    flags.  argparse parses all else, so its messages stay its own."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    values: dict[str, Any] = {"command": argv[0], "func": func}
    words, options, i = [*argv, "-"], {}, 1   # the "-" is refused where words run out
    try:
        for name, kw in arguments:
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
            action = kw.get("action")
            value = True if action == "store_true" else _value(words[i + 1], kw)
            values[dest] = (values[dest] or []) + [value] if action == "append" else value
            i += 1 if action == "store_true" else 2
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
    args.t0 = time.perf_counter()
    from .core import (ContractError, InputError, ParameterError, ParseError,
                       SizeError)
    try:
        return args.func(args)
    except (ParameterError, ParseError, InputError, ContractError, SizeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Process entry of ``python -m treepack.cli`` and the ``treepack`` script.

    A command leaves no cyclic garbage worth collecting (its graphs, trees and
    records are acyclic), so the cyclic collector is switched off and the
    start-up heap frozen out of its final passes.  ``main`` leaves GC state
    alone, for callers that run it inside their own process.
    """
    gc.disable()
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
