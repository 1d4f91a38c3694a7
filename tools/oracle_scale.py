#!/usr/bin/env python3
"""Cold exact-oracle times of two checkouts on product-scale graphs.

    python3 tools/oracle_scale.py PARENT CHANGE [--runs 10]

Runs the checkouts as ``tools/pairs.py`` does.  Per graph below and run, a
child per side prints sigma, a digest of (sigma, trees, certificate) and the
seconds of a cold ``max_packing``.  stdout gets n, m, sigma, the work units
that ``core.MAX_ORACLE_WORK`` caps, each side's median microseconds per unit,
``same DIGEST`` or ``DIFFER`` (exit 1), and pairs.py's claim on the seconds;
``--runs 1`` is the quick digest check.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().with_name("pairs.py"))
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# name -> the expression that makes the graph from treepack's graph functions
GRAPHS = {
    "K20xC20": "cartesian(complete(20), cycle(20)).graph",
    "K30xC30": "cartesian(complete(30), cycle(30)).graph",
    "K40xC40": "cartesian(complete(40), cycle(40)).graph",
    "Q10": "hypercube(10)",
    "K8oP6": "lexicographic(complete(8), path(6)).graph",
    "C12oK6": "lexicographic(cycle(12), complete(6)).graph",
    "K60": "complete(60)",
    "P100xP100": "cartesian(path(100), path(100)).graph",
}

CHILD = """
import hashlib, json, sys, time
from treepack.catalogue import complete, cycle, hypercube, path
from treepack.oracle import max_packing
from treepack.products import cartesian, lexicographic
g = eval(sys.argv[1])
t0 = time.perf_counter()
result = max_packing(g)
seconds = time.perf_counter() - t0
record = {"sigma": result.sigma, "trees": result.packing.trees,
          "certificate": result.certificate._asdict()}
text = json.dumps(record, sort_keys=True, separators=(",", ":"))
print(json.dumps({"n": g.n, "m": g.m, "sigma": result.sigma, "seconds": seconds,
                  "digest": hashlib.sha256(text.encode()).hexdigest()}))
"""


def run_once(checkout: Path, expr: str) -> dict:
    """The record one child of `checkout` prints for the graph `expr` builds."""
    return pairs.launch(checkout, expr, "-c", CHILD, expr)


def row(name: str, records: dict[str, list[dict]]) -> str:
    """One graph's stdout line."""
    first = records["parent"][0]
    units = first["m"] * (first["m"] // (first["n"] - 1))
    times = {side: [r["seconds"] for r in records[side]] for side in pairs.SIDES}
    v = pairs.verdict(*times.values(), "lower")
    rates = " ".join(f"{v[side] / units * 1e6:>9.2f}" for side in pairs.SIDES)
    digests = {r["digest"] for side in pairs.SIDES for r in records[side]}
    same = f"same {first['digest'][:12]}" if len(digests) == 1 else "DIFFER"
    return (f"{name:<10} {first['n']:>5} {first['m']:>6} {first['sigma']:>5} "
            f"{units:>9} {rates}  {same:<17} {pairs.claim_columns(v)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    paths = pairs.checkouts(args.parent, args.change)

    print(f"{'graph':<10} {'n':>5} {'m':>6} {'sigma':>5} {'units':>9} "
          f"{'parent us':>9} {'change us':>9}  {'digest':<17} {pairs.CLAIM_HEADER}")
    differ = False
    for name, expr in GRAPHS.items():
        records = {side: [] for side in pairs.SIDES}
        for i in range(args.runs):
            for side in pairs.order(i):
                records[side].append(run_once(paths[side], expr))
        line = row(name, records)
        differ |= " DIFFER " in line
        print(line, flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
