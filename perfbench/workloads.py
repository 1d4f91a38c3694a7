"""Seeded op lists for the three workloads.

An op is one `treepack` CLI invocation.  The seed draws the random graphs,
vertex relabellings and factor packings; the shape of each workload (which
families, which sizes) is fixed so that every seed does about the same work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import check
import graphs as gr

WORKLOADS = ("pack-oracle", "pack-given", "oracle-sparse")

# Spans the traced pass must see at least this many times per op, by op kind;
# a zero here would mean the tracer missed a call path.
MIN_SPANS = {
    "pack-oracle": {"cli.main": 1, "oracle.max_packing": 2, "products.build": 1,
                    "verify.verify_packing": 1, "core.read_graph": 2},
    "pack-given": {"cli.main": 1, "products.build": 1, "core.write_graph": 1,
                   "verify.verify_packing": 1, "core.read_graph": 2},
    "verify": {"cli.main": 1, "verify.verify_packing": 1, "core.read_graph": 1},
    "oracle": {"cli.main": 1, "oracle.max_packing": 1, "core.read_graph": 1},
}
# Spans that must not occur at all for an op kind.
NO_SPANS = {"pack-given": ("oracle.max_packing",),
            "verify": ("oracle.max_packing",)}


@dataclass
class Op:
    name: str
    kind: str                      # a key of MIN_SPANS
    argv: list[str]
    check: Callable[[int, str], str | None]
    outputs: list[str] = field(default_factory=list)   # files the op writes


# Closed forms for the packing number (Nash-Williams/Tutte values).
def sigma_complete(n: int) -> int:
    return n // 2


def sigma_multipartite(parts: int, size: int) -> int:
    return size * (parts - 1) // 2


def sigma_complete_minus_edge(n: int) -> int:
    return (n - 1) // 2


def sigma_hypercube(d: int) -> int:
    return d // 2


def sigma_complete_x_cycle(a: int) -> int:
    return (a + 1) // 2


def sigma_multipartite_x_cycle(parts: int, size: int) -> int:
    return (parts * size - size + 2) // 2


def _json_stdout(code: int, out: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not one JSON record"


class _Files:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def graph(self, g: gr.Graph, label: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"g{self.count:02d}.txt")
        gr.write_edge_list(path, g, label)
        return path

    def packing(self, trees: list[list[gr.Edge]]) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"p{self.count:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gr.packing_record(trees), fh)
        return path

    def out(self) -> str:
        self.count += 1
        return os.path.join(self.workdir, f"out{self.count:02d}.json")


def _pack_oracle(rng: random.Random, files: _Files) -> list[Op]:
    """Dense G (12-18 vertices), small H; the CLI runs the oracle on both.

    Eleven ops: the median op, lex K14 o P3, sits between two of similar cost,
    so the median sample does not jump between far-apart ops.
    """
    def relabelled(g: gr.Graph) -> gr.Graph:
        return gr.relabel(g, gr.random_perm(g[0], rng))

    def k_minus_e(n: int) -> gr.Graph:
        return gr.complete_minus(n, tuple(rng.sample(range(n), 2)))

    def dense(n: int, k: int) -> tuple[gr.Graph, int]:
        return gr.dense_known_sigma(n, k, n // 2, rng), k

    rows = [
        ("cartesian", "K12", (relabelled(gr.complete(12)), sigma_complete(12)),
         "C5", (relabelled(gr.cycle(5)), 1)),
        ("lex", "K12", (relabelled(gr.complete(12)), sigma_complete(12)),
         "K4", (relabelled(gr.complete(4)), sigma_complete(4))),
        ("cartesian", "K5(3)", (relabelled(gr.multipartite(5, 3)),
                                sigma_multipartite(5, 3)),
         "K4", (relabelled(gr.complete(4)), sigma_complete(4))),
        ("lex", "K4(4)", (relabelled(gr.multipartite(4, 4)),
                          sigma_multipartite(4, 4)),
         "P4", (relabelled(gr.path(4)), 1)),
        ("lex", "K14", (relabelled(gr.complete(14)), sigma_complete(14)),
         "P3", (relabelled(gr.path(3)), 1)),
        ("cartesian", "K15-e", (k_minus_e(15), sigma_complete_minus_edge(15)),
         "C6", (relabelled(gr.cycle(6)), 1)),
        ("lex", "R16k5", dense(16, 5), "K4", (relabelled(gr.complete(4)), 2)),
        ("cartesian", "R18k7", dense(18, 7), "P6", (relabelled(gr.path(6)), 1)),
        ("cartesian", "K16", (relabelled(gr.complete(16)), sigma_complete(16)),
         "C8", (relabelled(gr.cycle(8)), 1)),
        ("lex", "K17-e", (k_minus_e(17), sigma_complete_minus_edge(17)),
         "C3", (relabelled(gr.cycle(3)), 1)),
        ("cartesian", "K18", (relabelled(gr.complete(18)), sigma_complete(18)),
         "K6", (relabelled(gr.complete(6)), sigma_complete(6))),
    ]
    ops = []
    for kind, gname, (g, k), hname, (h, ell) in rows:
        fg, fh = files.graph(g, gname), files.graph(h, hname)
        host = gr.product(kind, g, h)

        def run_check(code: int, out: str, kind=kind, g=g, h=h, k=k, ell=ell,
                      host=host) -> str | None:
            record, problem = _json_stdout(code, out)
            return problem or check.pack_problem(record, kind, g, h, k, ell, host)

        sym = "x" if kind == "cartesian" else "o"
        ops.append(Op(f"pack {gname}{sym}{hname}", "pack-oracle",
                      ["pack", kind, fg, fh, "--format", "json"], run_check))
    return ops


def _pack_given(rng: random.Random, files: _Files) -> list[Op]:
    """Large products from the benchmark's own factor packings; no oracle."""
    def walecki(n: int) -> tuple[gr.Graph, list]:
        return gr.complete(n), gr.walecki_paths(n)

    def along(g: gr.Graph) -> tuple[gr.Graph, list]:
        return g, gr.spanning_path(g)

    rows = [
        ("cartesian", "K40", walecki(40), "C40", along(gr.cycle(40))),
        ("cartesian", "K24", walecki(24), "K24", walecki(24)),
        ("cartesian", "Q6", (gr.hypercube(6), gr.bfs_tree(gr.hypercube(6))),
         "K8", walecki(8)),
        ("lex", "K12", walecki(12), "K12", walecki(12)),           # balanced
        ("lex", "P10", along(gr.path(10)), "K12", walecki(12)),    # h_rich
        ("lex", "K16", walecki(16), "C8", along(gr.cycle(8))),     # g_rich
    ]
    ops = []
    for kind, gname, (g, pg), hname, (h, ph) in rows:
        perm_g, perm_h = gr.random_perm(g[0], rng), gr.random_perm(h[0], rng)
        g, h = gr.relabel(g, perm_g), gr.relabel(h, perm_h)
        pg, ph = gr.relabel_trees(pg, perm_g), gr.relabel_trees(ph, perm_h)
        rng.shuffle(pg)
        rng.shuffle(ph)
        host = gr.product(kind, g, h)
        fg, fh = files.graph(g, gname), files.graph(h, hname)
        fpg, fph = files.packing(pg), files.packing(ph)
        out = files.out()
        sym = "x" if kind == "cartesian" else "o"
        name = f"{gname}{sym}{hname}"

        def pack_check(code: int, _out: str, kind=kind, g=g, h=h, k=len(pg),
                       ell=len(ph), host=host, out=out) -> str | None:
            if code != 0:
                return f"exit code {code}"
            with open(out, encoding="utf-8") as fh_:
                record = json.load(fh_)
            with open(out + ".graph", encoding="utf-8") as fh_:
                problem = check.graph_file_problem(fh_.read(), host)
            return problem or check.pack_problem(record, kind, g, h, k, ell, host)

        def verify_check(code: int, text: str) -> str | None:
            record, problem = _json_stdout(code, text)
            if problem:
                return problem
            return None if record.get("overall") is True else "verify says FAIL"

        ops.append(Op(f"pack {name}", "pack-given",
                      ["pack", kind, fg, fh, "--factor-packing", fpg,
                       "--factor-packing", fph, "--out", out],
                      pack_check, [out, out + ".graph"]))
        ops.append(Op(f"verify {name}", "verify",
                      ["verify", out + ".graph", out, "--format", "json"],
                      verify_check))
    return ops


def _oracle_sparse(rng: random.Random, files: _Files) -> list[Op]:
    """Sparse, product-shaped graphs with few trees.

    Structured graphs keep the labelling `treepack product` writes: on sparse
    graphs a relabelling changes the oracle's search order and its cost by up
    to 3x, which would drown a real change in seed-to-seed spread.  The seed
    draws the random graphs.
    """
    def sparse(n: int, k: int, extra: int) -> tuple[gr.Graph, int]:
        return gr.sparse_known_sigma(n, k, extra, rng), k

    def kxc(a: int, b: int) -> tuple[gr.Graph, int]:
        return (gr.product("cartesian", gr.complete(a), gr.cycle(b)),
                sigma_complete_x_cycle(a))

    def kpxc(parts: int, size: int, r: int) -> tuple[gr.Graph, int]:
        return (gr.product("cartesian", gr.multipartite(parts, size), gr.cycle(r)),
                sigma_multipartite_x_cycle(parts, size))

    def grid(a: int, b: int) -> tuple[gr.Graph, int]:
        return gr.product("cartesian", gr.path(a), gr.path(b)), 1

    # Five cheap ops, three of middling cost around the median, six costly
    # ones: the median op is then one of three similar structured graphs.
    rows = [
        ("Q4", (gr.hypercube(4), sigma_hypercube(4))),
        ("K4xC6", kxc(4, 6)),
        ("K3xC20", kxc(3, 20)),
        ("K4xC12", kxc(4, 12)),
        ("K3(2)xC6", kpxc(3, 2, 6)),
        ("K3(2)xC10", kpxc(3, 2, 10)),
        ("Q6", (gr.hypercube(6), sigma_hypercube(6))),
        ("P30xP10", grid(30, 10)),
        ("P20xP20", grid(20, 20)),
        ("R100k2", sparse(100, 2, 90)),
        ("R120k2", sparse(120, 2, 100)),
        ("K4(2)xC8", kpxc(4, 2, 8)),
        ("K6xC20", kxc(6, 20)),
        ("Q7", (gr.hypercube(7), sigma_hypercube(7))),
    ]
    ops = []
    for name, (g, sigma) in rows:
        fg = files.graph(g, name)

        def run_check(code: int, out: str, g=g, sigma=sigma) -> str | None:
            record, problem = _json_stdout(code, out)
            return problem or check.oracle_problem(record, g, sigma)

        ops.append(Op(f"oracle {name}", "oracle",
                      ["oracle", fg, "--format", "json"], run_check))
    return ops


OP_LISTS = {"pack-oracle": _pack_oracle, "pack-given": _pack_given,
            "oracle-sparse": _oracle_sparse}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Write the workload's input files under workdir and return its ops."""
    rng = random.Random(f"{workload}/{seed}")
    return OP_LISTS[workload](rng, _Files(workdir))
