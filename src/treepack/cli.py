"""Command line interface: generate, compose, pack, verify, tabulate.

Stdout carries the requested artifact (edge list, packing record, report,
table) and is byte-identical across runs of the same command; a one-line run
record with wall time goes to stderr.

Each ``cmd_*`` imports the modules it runs inside the function, so a command
loads no module it does not use and ``--help`` loads none.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from .catalogue import TableRow
    from .core import Graph, TreePacking

# products.CARTESIAN and LEXICOGRAPHIC, spelled out so the parser imports nothing
PRODUCT_KINDS = ("cartesian", "lex")

# CLI family name -> (constructor in treepack.core, parameter count)
FAMILIES = {
    "path": ("path", 1),
    "cycle": ("cycle", 1),
    "complete": ("complete", 1),
    "multipartite": ("complete_multipartite", 2),
    "hypercube": ("hypercube", 1),
    "complete-minus-edge": ("complete_minus_edge", 1),
}


def _emit_run_record(args: argparse.Namespace, inputs: list[str],
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


def cmd_gen(args: argparse.Namespace) -> int:
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


def cmd_product(args: argparse.Namespace) -> int:
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


def _factor_packings(args: argparse.Namespace, g: Graph,
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


def cmd_pack(args: argparse.Namespace) -> int:
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


def cmd_oracle(args: argparse.Namespace) -> int:
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


def cmd_verify(args: argparse.Namespace) -> int:
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


def cmd_table(args: argparse.Namespace) -> int:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepack",
        description="Edge-disjoint spanning tree packings of product graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out: bool = True) -> None:
        if out:
            p.add_argument("--out", help="write the primary artifact to this path")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_gen = sub.add_parser("gen", help="generate a named graph family")
    p_gen.add_argument("family", choices=sorted(FAMILIES))
    p_gen.add_argument("params", nargs="+", type=int)
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_prod = sub.add_parser("product", help="compose two graphs")
    p_prod.add_argument("kind", choices=PRODUCT_KINDS)
    p_prod.add_argument("fileG")
    p_prod.add_argument("fileH")
    common(p_prod)
    p_prod.set_defaults(func=cmd_product)

    p_pack = sub.add_parser("pack", help="build a spanning tree packing of a product")
    p_pack.add_argument("kind", choices=PRODUCT_KINDS)
    p_pack.add_argument("fileG")
    p_pack.add_argument("fileH")
    p_pack.add_argument("--factor-packing", action="append", metavar="PATH",
                        help="packing file for a factor; give once for the "
                             "first factor, twice for both")
    common(p_pack)
    p_pack.set_defaults(func=cmd_pack)

    p_oracle = sub.add_parser("oracle", help="exact packing number with certificate")
    p_oracle.add_argument("file")
    common(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="check a packing file against a graph")
    p_verify.add_argument("graphfile")
    p_verify.add_argument("packingfile")
    common(p_verify, out=False)
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="closed form vs construction vs oracle")
    p_table.add_argument("--strict", action="store_true",
                         help="exit nonzero on any unexpected mismatch")
    common(p_table, out=False)
    p_table.set_defaults(func=cmd_table)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
