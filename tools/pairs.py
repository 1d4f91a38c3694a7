#!/usr/bin/env python3
"""Alternated parent/change pairs of the benchmark, with the claim verdict.

    python3 tools/pairs.py PARENT CHANGE --seed 1 [--pairs 10] [--seconds 30]
                           [--workload NAME ...]

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
``perfbench/run.py --trace 0`` of both checkouts once per workload, and the
side that runs first alternates from pair to pair.  Every run prints one
line to stderr as it ends.  Then, per workload and end-to-end metric, stdout
gets the pairs the change won (ties count for neither), both medians, the
change in the median, the parent's interquartile range and the verdict on a
claimed gain: it holds when the change wins at least nine pairs in ten and
its median beats the parent's by more than the parent's interquartile range.

The workloads, the metrics and the direction in which each metric is better
come from the change's BENCHMARK.json, and so does the default run length.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that the last stdout line of one benchmark run holds."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} exited with {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Wins, medians and the claim rule for one metric on one workload."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    pm, cm = statistics.median(parent), statistics.median(change)
    gap = sign * (pm - cm)
    return {"wins": wins, "parent": pm, "change": cm, "iqr": q3 - q1,
            "relative": (cm - pm) / pm if pm else 0.0,
            "holds": 10 * wins >= 9 * len(parent) and gap > q3 - q1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length of each run; default: BENCHMARK.json")
    parser.add_argument("--workload", action="append",
                        help="a workload to run; default: every workload")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs = {(w, side): [] for w in names for side in SIDES}
    for i in range(args.pairs):
        for workload in names:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                checkout = args.parent if side == "parent" else args.change
                result = run_once(checkout, workload, args.seed, seconds)
                runs[workload, side].append(result)
                values = " ".join(f"{k}={v['value']:.4f}"
                                  for k, v in result["metrics"].items())
                print(f"pair {i + 1} {workload} {side} {values} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)

    print(f"seed {args.seed}, {args.pairs} pairs of {seconds:g} s, parent first "
          "in odd pairs")
    print(f"{'workload':<14} {'metric':<12} {'wins':>6} {'parent':>10} "
          f"{'change':>10} {'delta':>7} {'parent IQR':>10}  claim")
    for workload in names:
        parent, change = runs[workload, "parent"], runs[workload, "change"]
        for name, better in metrics.items():
            v = verdict([r["metrics"][name]["value"] for r in parent],
                        [r["metrics"][name]["value"] for r in change], better)
            print(f"{workload:<14} {name:<12} {v['wins']:>3}/{args.pairs:<2} "
                  f"{v['parent']:>10.4f} {v['change']:>10.4f} "
                  f"{v['relative']:>+7.1%} {v['iqr']:>10.4f}  "
                  f"{'holds' if v['holds'] else 'not met'}")
        failed = [sum(r["failed"] for r in side) for side in (parent, change)]
        attempted = [sum(r["attempted"] for r in side) for side in (parent, change)]
        print(f"{workload:<14} failed ops: parent {failed[0]}/{attempted[0]}, "
              f"change {failed[1]}/{attempted[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
