#!/usr/bin/env python3
"""Run workloads over several seeds, one run at a time, and summarise.

    python3 perfbench/sweep.py --out RUNS.jsonl [--seeds 1-10]
                               [--workloads pack-oracle,...] [--trace 0]

Each run appends its record to --out; report.py then prints every metric's
median, quartiles and spread over the seeds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(report.SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range, e.g. 1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            res = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--record", args.out],
                capture_output=True, text=True, timeout=600)
            last = res.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {res.returncode} {last[0][:160]}",
                  flush=True)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return 1
    return report.summarize(args.out, spec)


if __name__ == "__main__":
    sys.exit(main())
