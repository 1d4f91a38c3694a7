#!/usr/bin/env python3
"""Cold exact-oracle times of two checkouts on product-scale graphs.

    python3 tools/oracle_scale.py PARENT CHANGE [--runs N]

PARENT and CHANGE are two checkouts of this repository.  For each graph below
and each run, one child per checkout builds the graph with that checkout's
own ``treepack`` and times its first ``max_packing`` call; the side that runs
first alternates from run to run.  Every child prints sigma, a digest of
(sigma, trees, certificate) and the time.  stdout gets one line per graph:
n, m, sigma, the oracle's work units m*floor(m/(n-1)) (what
``core.MAX_ORACLE_WORK`` caps), each side's times, each side's microseconds
per unit and whether every digest agreed.  The exit code is 1 if any digest
differs between the sides or between runs.
Uses the standard library only; K40xC40 alone takes 10-20 s per child.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

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
    done = subprocess.run([sys.executable, "-c", CHILD, expr], cwd=checkout,
                          env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: {expr} exited with {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    print(f"{args.runs} runs per side, parent first in odd runs; cold "
          "max_packing seconds")
    print(f"{'graph':<10} {'n':>5} {'m':>6} {'sigma':>5} {'units':>9}  "
          f"{'parent s':<20} {'change s':<20} {'parent us/unit':<16} "
          f"{'change us/unit':<16} digest")
    mismatch = False
    for name, expr in GRAPHS.items():
        records: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.runs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                record = run_once(checkouts[side], expr)
                records[side].append(record)
                print(f"run {i + 1} {name} {side} {record['seconds']:.3f} s "
                      f"sigma={record['sigma']} {record['digest'][:12]}",
                      file=sys.stderr, flush=True)
        digests = {r["digest"] for side in SIDES for r in records[side]}
        mismatch |= len(digests) > 1
        first = records["parent"][0]
        units = first["m"] * (first["m"] // (first["n"] - 1))
        times = {side: " ".join(f"{r['seconds']:.2f}" for r in records[side])
                 for side in SIDES}
        rates = {side: " ".join(f"{r['seconds'] / units * 1e6:.1f}"
                                for r in records[side]) for side in SIDES}
        print(f"{name:<10} {first['n']:>5} {first['m']:>6} {first['sigma']:>5} "
              f"{units:>9}  {times['parent']:<20} {times['change']:<20} "
              f"{rates['parent']:<16} {rates['change']:<16} "
              f"{'same ' + first['digest'][:12] if len(digests) == 1 else 'DIFFER'}",
              flush=True)
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
