"""Spans around calls into treepack's public functions, from outside.

`install` wraps each target function and rebinds every name that refers to
it in every loaded treepack module, so `from .verify import verify_packing`
in cli, cartesian and lex is traced as well.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

Note = Callable[["Tracer", tuple, Any, float], None]


def _count_edges_checked(tr: "Tracer", args: tuple, _res: Any, _dur: float) -> None:
    packing = args[1]
    trees = getattr(packing, "trees", None)
    tr.counts["verify.edges_checked"] += (
        sum(len(t) for t in trees) if trees is not None else len(packing))


def _count_levels(tr: "Tracer", _args: tuple, res: Any, _dur: float) -> None:
    tr.counts["oracle.levels"] += res.sigma + 1


def _count_built(tr: "Tracer", _args: tuple, res: Any, _dur: float) -> None:
    tr.counts["products.edges_built"] += res.graph.m


def _count_read(tr: "Tracer", _args: tuple, res: Any, _dur: float) -> None:
    tr.counts["core.read_graph_edges"] += res.m


def _lex_regime(tr: "Tracer", args: tuple, _res: Any, dur: float) -> None:
    g, h, pack_g, pack_h = args[:4]
    k, ell = len(pack_g.trees), len(pack_h.trees)
    lhs, rhs = ell * g.n, k * h.n
    regime = "balanced" if lhs == rhs else ("h_rich" if lhs > rhs else "g_rich")
    tr.regime_s[f"lex.{regime}_s"] += dur


# (module, attribute, span name, note).  Several functions may share a span
# name; nested calls under one name count once in its inclusive time.
TARGETS: list[tuple[str, str, str, Note | None]] = [
    ("treepack.cli", "main", "cli.main", None),
    ("treepack.core", "read_graph", "core.read_graph", _count_read),
    ("treepack.core", "write_graph", "core.write_graph", None),
    ("treepack.core", "Graph.from_edges", "core.from_edges", None),
    ("treepack.core", "EdgeSet.of", "core.edgeset_of", None),
    ("treepack.core", "check_packing", "core.check_packing", None),
    ("treepack.products", "cartesian", "products.build", _count_built),
    ("treepack.products", "lexicographic", "products.build", _count_built),
    ("treepack.products", "write_product", "products.write_product", None),
    ("treepack.oracle", "max_packing", "oracle.max_packing", _count_levels),
    ("treepack.decomp", "root_tree", "decomp", None),
    ("treepack.decomp", "leaf_split", "decomp", None),
    ("treepack.decomp", "matching_decomposition", "decomp", None),
    ("treepack.decomp", "parallel_subgraph_lex", "decomp", None),
    ("treepack.decomp", "parallel_subgraphs_cartesian", "decomp", None),
    ("treepack.decomp", "extract_spanning_tree", "decomp", None),
    ("treepack.cartesian", "pack_cartesian", "cartesian.pack", None),
    ("treepack.cartesian", "build_hat_tree", "cartesian.build_hat_tree", None),
    ("treepack.lex", "pack_lex", "lex.pack", _lex_regime),
    ("treepack.verify", "verify_packing", "verify.verify_packing",
     _count_edges_checked),
    ("treepack.verify", "verify_tree", "verify.verify_tree",
     _count_edges_checked),
]


class Tracer:
    """Per-name inclusive time, self time, call counts and counters."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.depth: Counter = Counter()
        self.time: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.regime_s: Counter = Counter()

    def wrap(self, fn: Callable, name: str, note: Note | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            self.stack.append(child)
            outer = self.depth[name] == 0
            self.depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.depth[name] -= 1
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dur
                self.self_time[name] += dur - child[0]
                if outer:
                    self.time[name] += dur
                self.calls[name] += 1
            if note is not None:
                note(self, args, result, dur)
            return result
        return traced


def install(tracer: Tracer) -> tuple[Callable[[], None], dict[str, int]]:
    """Wrap every target; return an undo function and bindings per target.

    A target missing from the program is reported with 0 bindings.
    """
    loaded = [m for name, m in sys.modules.items()
              if name == "treepack" or name.startswith("treepack.")]
    undo: list[tuple[Any, str, Any]] = []
    bound: dict[str, int] = {}
    for modname, attr, span, note in TARGETS:
        key = f"{modname}.{attr}"
        owner: Any = sys.modules.get(modname)
        *cls_path, fname = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None:
            bound[key] = 0
            continue
        if cls_path:
            raw = owner.__dict__.get(fname)
            if not isinstance(raw, classmethod):
                bound[key] = 0
                continue
            setattr(owner, fname, classmethod(tracer.wrap(raw.__func__, span, note)))
            undo.append((owner, fname, raw))
            bound[key] = 1
            continue
        fn = getattr(owner, fname, None)
        if fn is None:
            bound[key] = 0
            continue
        wrapped = tracer.wrap(fn, span, note)
        bound[key] = 0
        for module in loaded:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapped)
                    undo.append((module, name, fn))
                    bound[key] += 1

    def uninstall() -> None:
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)
    return uninstall, bound
