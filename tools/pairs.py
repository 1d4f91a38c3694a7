#!/usr/bin/env python3
"""Alternated parent/change pairs of the benchmark, with the claim verdict.

    python3 tools/pairs.py PARENT CHANGE --seed 1 [--pairs 10] [--seconds 30]
                           [--workload NAME ...]

PARENT and CHANGE are two checkouts of this repository, refused if either
holds a ``__pycache__`` under ``src/``.  Each pair runs ``perfbench/run.py
--trace 0`` of both once per workload (from the change's BENCHMARK.json), the
side that runs first alternating.  Per workload and end-to-end metric, stdout
gets the pairs the change won (ties count for neither), both medians, the
change in the median, the parent's interquartile range and the claim: it
holds when the change wins at least nine pairs in ten and its median beats
the parent's by more than that range.  ``tools/oracle_scale.py`` shares the
refusal, launcher, side order and claim rule.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CLAIM_HEADER = (f"{'wins':>6} {'parent':>10} {'change':>10} {'delta':>7} "
                f"{'parent IQR':>10}  claim")


def checkouts(parent: Path, change: Path) -> dict[str, Path]:
    """Both checkouts by side, resolved; exit naming each ``__pycache__`` under
    their ``src/``, whose bytecode one side would load and the other compile."""
    paths = {"parent": parent.resolve(), "change": change.resolve()}
    caches = [c for p in paths.values() for c in (p / "src").rglob("__pycache__")]
    if caches:
        sys.exit(f"{' '.join(map(str, caches))}: compiled bytecode in a "
                 "checkout to be timed; delete it or use a fresh clone")
    return paths


def order(i: int) -> tuple[str, str]:
    """The sides in the order they run in pair or run `i`, counted from 0."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def launch(checkout: Path, what: str, *args: str) -> dict:
    """The JSON object on the last stdout line of ``python ARGS`` run in
    `checkout` on its ``src/``, writing no bytecode; echoed to stderr."""
    done = subprocess.run(
        [sys.executable, *args], cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(checkout / "src"),
                 PYTHONDONTWRITEBYTECODE="1"))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {what} exited with {done.returncode}\n"
                 f"{done.stderr[-2000:]}")
    print(f"{checkout} {what} {lines[-1]}", file=sys.stderr, flush=True)
    return json.loads(lines[-1])


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Wins, medians and the claim rule for one metric on one workload."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    pm, cm = statistics.median(parent), statistics.median(change)
    gap = sign * (pm - cm)
    return {"wins": wins, "pairs": len(parent), "parent": pm, "change": cm,
            "iqr": q3 - q1, "relative": (cm - pm) / pm if pm else 0.0,
            "holds": 10 * wins >= 9 * len(parent) and gap > q3 - q1}


def claim_columns(v: dict) -> str:
    """A verdict under the columns of CLAIM_HEADER."""
    return (f"{v['wins']:>3}/{v['pairs']:<2} {v['parent']:>10.4f} "
            f"{v['change']:>10.4f} {v['relative']:>+7.1%} {v['iqr']:>10.4f}  "
            f"{'holds' if v['holds'] else 'not met'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json")
    parser.add_argument("--workload", action="append", help="default: every one")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    paths = checkouts(args.parent, args.change)
    bench = json.loads((paths["change"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    argv = ("perfbench/run.py", "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", "0", "--workload")
    runs = {(w, side): [] for w in names for side in SIDES}
    for i in range(args.pairs):
        for w in names:
            for side in order(i):
                runs[w, side].append(launch(paths[side], w, *argv, w))

    print(f"seed {args.seed}, {args.pairs} pairs of {seconds:g} s, parent first "
          "in odd pairs")
    print(f"{'workload':<14} {'metric':<12} {CLAIM_HEADER}")
    for workload in names:
        parent, change = runs[workload, "parent"], runs[workload, "change"]
        for name, better in metrics.items():
            v = verdict([r["metrics"][name]["value"] for r in parent],
                        [r["metrics"][name]["value"] for r in change], better)
            print(f"{workload:<14} {name:<12} {claim_columns(v)}")
        print(f"{workload:<14} failed ops: " + ", ".join(
            f"{side} {sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
            for side, rs in zip(SIDES, (parent, change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
