#!/usr/bin/env python3
"""Benchmark of the treepack command line interface.

    python3 perfbench/run.py --workload pack-oracle --seed 1 --seconds 30 --trace 0

Each op is one `python -m treepack.cli ...` child process, run with
PYTHONPATH set to this checkout's src/, one at a time.  The op list is run in
round robin until --seconds have gone by.  Every op's output is checked by
the benchmark's own checker (check.py).

--trace 0 reports the end-to-end metrics from the child processes.
--trace 1 instead runs the same ops in this process, alternating untraced
passes with passes whose calls into treepack's public functions are wrapped
in spans (spans.py), and reports per-layer metrics per pass.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  --record FILE also appends the full run record to FILE as one JSON
line, for report.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "treepack").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], env: dict[str, str],
              workdir: Path) -> tuple[int, float, float, str]:
    """(exit code, wall seconds, peak RSS in MB, stdout) of one child."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, wall, usage.ru_maxrss / 1024, out_path.read_text()


class Checker:
    """Runs each op's check once per distinct output."""

    def __init__(self) -> None:
        self.verdicts: dict[str, str | None] = {}
        self.failures: list[tuple[str, str]] = []

    def __call__(self, op: workloads.Op, code: int, out: str) -> bool:
        h = hashlib.sha256(f"{op.name}\0{code}\0{out}".encode())
        for path in op.outputs:
            with contextlib.suppress(OSError):
                h.update(Path(path).read_bytes())
        key = h.hexdigest()
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(code, out)
            except Exception as exc:  # a checker crash fails the op, not the run
                self.verdicts[key] = f"checker error: {exc!r}"
        problem = self.verdicts[key]
        if problem is not None:
            self.failures.append((op.name, problem))
        return problem is None


# The reference program: fixed pure-Python work that shares nothing with
# treepack.  It runs before the first op and after every op.  Each timed
# child is scaled by the mean of the two reference runs around it, which
# follows the speed of a shared machine as it drifts within a run.
REF_CODE = """
d = {}
x = 0
for i in range(300000):
    x = (x * 31 + i) % 1000003
    d[x & 8191] = (x, i)
s = set()
for a, (b, c) in sorted(d.items()):
    s.add((a, b))
"""
# Its median time on a quiet 2-core Xeon at 2.1 GHz with Python 3.11.
REF_NOMINAL_S = 0.18
SETUP_EVERY = 4


def run_children(ops, seconds: float, workdir: Path):
    env = child_env()
    cli = [sys.executable, "-m", "treepack.cli"]

    def timed(cmd: list[str]) -> float:
        code, wall, _, _ = run_child(cmd, env, workdir)
        if code != 0:
            raise Fatal(f"{' '.join(cmd[:4])} exited with {code}; "
                        f"see {workdir / 'stderr.txt'}")
        return wall

    def ref() -> float:
        return timed([sys.executable, "-c", REF_CODE])

    timed(cli + ["--help"])  # untimed: fills the bytecode cache
    checker = Checker()
    raw: dict[str, list[float]] = {op.name: [] for op in ops}
    scaled: dict[str, list[float]] = {op.name: [] for op in ops}
    raw_setups: list[float] = []
    setups: list[float] = []
    refs = [ref()]
    peak_rss = 0.0
    attempted = failed = 0
    # Round robin over the ops until the time is up and each op has run once.
    start = perf_counter()
    while attempted < len(ops) or perf_counter() - start < seconds:
        op = ops[attempted % len(ops)]
        code, wall, rss, out = run_child(cli + op.argv, env, workdir)
        failed += not checker(op, code, out)
        peak_rss = max(peak_rss, rss)
        setup = timed(cli + ["--help"]) if attempted % SETUP_EVERY == 0 else None
        refs.append(ref())
        scale = 2 * REF_NOMINAL_S / (refs[-2] + refs[-1])
        raw[op.name].append(wall)
        scaled[op.name].append(wall * scale)
        if setup is not None:
            raw_setups.append(setup)
            setups.append(setup * scale)
        attempted += 1

    def op_medians(samples: dict[str, list[float]]) -> list[float]:
        return [statistics.median(ts) for ts in samples.values()]

    every = [t for ts in scaled.values() for t in ts]
    metrics = {
        "wall_s": (sum(op_medians(scaled)), "s"),
        "op_p50_s": (statistics.median(op_medians(scaled)), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {"op_samples": len(every), "setup_samples": len(setups),
            "ref_s": statistics.median(refs), "raw_wall_s": sum(op_medians(raw)),
            "raw_op_p50_s": statistics.median(op_medians(raw)),
            "raw_setup_s": statistics.median(raw_setups),
            "op_samples_s": raw, "ref_samples_s": refs}
    if len(every) >= 100:
        info["op_p90_s"] = statistics.quantiles(every, n=10)[-1]
    return metrics, attempted, failed, checker.failures, info


def call_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = sys.modules["treepack.cli"].main(argv)
        except Exception:
            return -1, traceback.format_exc()
    return code, out.getvalue()


def span_problems(op: workloads.Op, before, after) -> list[str]:
    problems = []
    for span, least in workloads.MIN_SPANS[op.kind].items():
        seen = after[span] - before[span]
        if seen < least:
            problems.append(f"span {span} seen {seen} times, expected >= {least}")
    for span in workloads.NO_SPANS.get(op.kind, ()):
        seen = after[span] - before[span]
        if seen:
            problems.append(f"span {span} seen {seen} times, expected 0")
    return problems


def run_traced(ops, seconds: float, _workdir: Path):
    sys.path.insert(0, str(SRC))
    import treepack
    import treepack.cli  # noqa: F401
    if not Path(treepack.__file__).resolve().is_relative_to(SRC):
        raise Fatal(f"imported treepack from {treepack.__file__}, not {SRC}")
    tracer = spans.Tracer()
    checker = Checker()
    bindings: dict[str, int] = {}
    failed = 0

    def one_pass(traced: bool) -> float:
        nonlocal bindings, failed
        uninstall = None
        if traced:
            uninstall, bindings = spans.install(tracer)
        t0 = perf_counter()
        try:
            for op in ops:
                before = tracer.calls.copy()
                code, out = call_main(op.argv)
                ok = checker(op, code, out)
                if traced:
                    for problem in span_problems(op, before, tracer.calls):
                        checker.failures.append((op.name, problem))
                        ok = False
                failed += not ok
        finally:
            if uninstall:
                uninstall()
        return perf_counter() - t0

    one_pass(False)  # untimed: warms file and allocator caches
    plain_s: list[float] = []
    traced_s: list[float] = []
    # Whole pairs of passes, the next one only if it should end in time.
    start = perf_counter()
    while (not traced_s
           or perf_counter() - start + plain_s[-1] + traced_s[-1] <= seconds):
        plain_s.append(one_pass(False))
        traced_s.append(one_pass(True))
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    metrics = layer_metrics(tracer, len(traced_s), overhead)
    self_ratio = metrics["trace.self_sum_ratio"][0]
    if abs(self_ratio - 1) > max(overhead - 1, 0) + 1e-6:
        checker.failures.append(("trace", f"self times sum to {self_ratio:.4f} "
                                          "of cli.main_s, beyond the overhead"))
    info = {"passes": len(traced_s), "bindings": bindings,
            "unbound": [k for k, v in bindings.items() if not v]}
    attempted = len(ops) * (1 + len(plain_s) + len(traced_s))
    return metrics, attempted, failed, checker.failures, info


def layer_metrics(tr: spans.Tracer, passes: int,
                  overhead: float) -> dict[str, tuple[float, str]]:
    def t(name: str) -> float:
        return tr.time[name] / passes

    def c(name: str) -> int:
        return tr.calls[name] // passes

    def count(name: str) -> int:
        return tr.counts[name] // passes

    def self_of(layer: str) -> float:
        return sum(v for k, v in tr.self_time.items()
                   if k == layer or k.startswith(layer + ".")) / passes

    levels = count("oracle.levels")
    read_s = t("core.read_graph")
    main_s = t("cli.main")
    all_self = sum(tr.self_time.values()) / passes
    return {
        "oracle.max_packing_s": (t("oracle.max_packing"), "s"),
        "oracle.calls": (c("oracle.max_packing"), "count"),
        "oracle.levels": (levels, "count"),
        "oracle.s_per_level": (
            t("oracle.max_packing") / levels if levels else 0.0, "s"),
        "oracle.self_s": (self_of("oracle"), "s"),
        "verify.verify_packing_s": (t("verify.verify_packing"), "s"),
        "verify.verify_packing_calls": (c("verify.verify_packing"), "count"),
        "verify.verify_tree_s": (t("verify.verify_tree"), "s"),
        "verify.verify_tree_calls": (c("verify.verify_tree"), "count"),
        "verify.edges_checked": (count("verify.edges_checked"), "count"),
        "verify.self_s": (self_of("verify"), "s"),
        "products.build_s": (t("products.build"), "s"),
        "products.build_calls": (c("products.build"), "count"),
        "products.edges_built": (count("products.edges_built"), "count"),
        "products.self_s": (self_of("products"), "s"),
        "core.from_edges_s": (t("core.from_edges"), "s"),
        "core.from_edges_calls": (c("core.from_edges"), "count"),
        "core.edgeset_of_s": (t("core.edgeset_of"), "s"),
        "core.edgeset_of_calls": (c("core.edgeset_of"), "count"),
        "core.check_packing_s": (t("core.check_packing"), "s"),
        "core.check_packing_calls": (c("core.check_packing"), "count"),
        "core.read_graph_s": (read_s, "s"),
        "core.read_graph_calls": (c("core.read_graph"), "count"),
        "core.read_graph_edges_per_s": (
            count("core.read_graph_edges") / read_s if read_s else 0.0, "1/s"),
        "core.write_graph_s": (t("core.write_graph"), "s"),
        "core.self_s": (self_of("core"), "s"),
        "decomp.s": (t("decomp"), "s"),
        "decomp.calls": (c("decomp"), "count"),
        "decomp.self_s": (self_of("decomp"), "s"),
        "cartesian.pack_s": (t("cartesian.pack"), "s"),
        "cartesian.build_hat_tree_s": (t("cartesian.build_hat_tree"), "s"),
        "cartesian.self_s": (self_of("cartesian"), "s"),
        "lex.pack_s": (t("lex.pack"), "s"),
        "lex.balanced_s": (tr.regime_s["lex.balanced_s"] / passes, "s"),
        "lex.h_rich_s": (tr.regime_s["lex.h_rich_s"] / passes, "s"),
        "lex.g_rich_s": (tr.regime_s["lex.g_rich_s"] / passes, "s"),
        "lex.self_s": (self_of("lex"), "s"),
        "cli.main_s": (main_s, "s"),
        "cli.main_calls": (c("cli.main"), "count"),
        "cli.self_s": (self_of("cli"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.self_sum_ratio": (all_self / main_s if main_s else 0.0, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full run record to this file")
    args = parser.parse_args(argv)

    if not (SRC / "treepack" / "cli.py").is_file():
        print(f"error: no treepack sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t0 = perf_counter()
        ops = workloads.build(args.workload, args.seed, str(workdir))
        gen_s = perf_counter() - t0
        run = run_traced if args.trace else run_children
        metrics, attempted, failed, failures, info = run(ops, args.seconds, workdir)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "commit": commit(),
              "src_digest": source_digest(), "python": platform.python_version(),
              "ops": len(ops), "input_gen_s": gen_s}
    print(" ".join(f"{k}={v}" for k, v in header.items()))
    for key, value in info.items():
        if not key.endswith("samples_s"):
            print(f"{key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    for name, problem in failures:
        print(f"FAILED {name}: {problem}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, **info, "failures": failures,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
