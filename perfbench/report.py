#!/usr/bin/env python3
"""Summarise or compare run records written by `run.py --record FILE`.

    python3 perfbench/report.py RUNS.jsonl            every metric with its unit
    python3 perfbench/report.py BASE.jsonl NEW.jsonl  NEW against BASE

One file: per workload, each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median).  An end-to-end
metric whose spread exceeds a third of its bound in BENCHMARK.json is marked
NOISY.  Two files: per workload, each end-to-end metric's change of median
from BASE to NEW, counted in the metric's "worse" direction.  It is marked
WORSE when the change exceeds the bound, UNRESOLVED when either side's spread
exceeds the bound, else ok.  The exit code is 1 if any metric is WORSE or
NOISY, and 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, one per run; also counts failed ops."""
    runs: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            result = rec["result"]
            per = runs[rec["workload"]]
            for name, m in result["metrics"].items():
                per[name].append(m["value"])
            per["(failed ops)"].append(result["failed"])
            per["(incorrect runs)"].append(0 if result["correct"] else 1)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(path: str, spec: dict) -> int:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0
    for workload, metrics in load(path).items():
        print(f"== {workload}")
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            mark = ""
            if name in e2e:
                mark = f"bound {e2e[name]['bound']:.2f}"
                if name != "setup_s" and s > e2e[name]["bound"] / 3:
                    mark += "  NOISY"
                    bad += 1
            print(f"  {name:30s} {units.get(name, ''):6s} n={len(values):<3d}"
                  f" median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {s:6.3f}  {mark}")
    return 1 if bad else 0


def compare(base_path: str, new_path: str, spec: dict) -> int:
    base, new = load(base_path), load(new_path)
    bad = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            name = m["name"]
            a, b = base[workload].get(name), new[workload].get(name)
            if not a or not b:
                print(f"  {name:14s} missing")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if change > m["bound"]:
                verdict = "WORSE"
                bad += 1
            elif max(spread(a), spread(b)) > m["bound"]:
                verdict = "UNRESOLVED"
            else:
                verdict = "ok"
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:14s} {m['unit']:3s} base {ma:<11.6g}"
                  f"[{qa[0]:.6g}, {qa[2]:.6g}]  new {mb:<11.6g}"
                  f"[{qb[0]:.6g}, {qb[2]:.6g}]  worse by {change:+.3f}"
                  f" (bound {m['bound']:.2f})  {verdict}")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    return summarize(argv[0], spec) if len(argv) == 1 else compare(*argv, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
