"""Benchmark of the ghyltl toolkit: verdict latency on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--ops K]

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: gadget-mul-context, sat-unsat-sweep, cli-stutter-corpus,
prenex-pos-corpus (see workloads.py).  Each timed pass runs the workload's
fixed set of ops in a fresh interpreter with one thread; passes repeat until
``--seconds`` is used up, and at least three times.  ``wall_s`` is
the median over passes, the op percentiles are over all op times.  Every
verdict is compared with a reference computed in a separate process.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` it holds per-layer calls and self time from two traced passes,
which must agree on every count, plus the tracing overhead against one
untraced pass.  ``--ops`` shrinks the op set, for the self-test.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("gadget-mul-context", "sat-unsat-sweep", "cli-stutter-corpus",
             "prenex-pos-corpus")
SETUP_SAMPLES = 7
# Every op set has at least 52 ops, so three passes give 156 or more op times
# and at least 15 of them lie beyond p90; the median of three passes also
# discards one pass slowed by the machine.
MIN_PASSES = 3
TIMEOUT_S = 170


def spawn(mode: str, args, workdir: str) -> tuple[float, dict]:
    """Run one worker process; return its start time and its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed), str(args.ops), workdir]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def op_ok(verdict: str, ref: str) -> bool:
    """An op fails if it raised, if it disagrees with a definite reference,
    or if it is unknown where the reference is definite."""
    if verdict.startswith("error"):
        return False
    return ref not in ("holds", "fails") or verdict == ref


def run(args, workdir: str) -> dict:
    start = time.monotonic()
    spawn("setup", args, workdir)  # compiles bytecode, so later start-ups are warm
    setup = []
    for _ in range(SETUP_SAMPLES):
        t0, out = spawn("setup", args, workdir)
        setup.append(out["ready"] - t0)

    passes, traced = [], []
    if args.trace:
        passes.append(spawn("pass", args, workdir)[1])
        traced = [spawn("trace", args, workdir)[1] for _ in range(2)]
    else:
        # A shrunk op set (--ops) needs only one pass.
        min_passes = 1 if args.ops else MIN_PASSES
        while time.monotonic() - start < args.seconds or len(passes) < min_passes:
            t0, out = spawn("pass", args, workdir)
            setup.append(out["ready"] - t0)
            passes.append(out)
    reference = spawn("check", args, workdir)[1]["reference"]

    problems = []
    attempted = failed = 0
    for p in passes + traced:
        if p["verdicts"] != passes[0]["verdicts"]:
            problems.append("verdicts differ between passes")
        for i, (v, ref) in enumerate(zip(p["verdicts"], reference)):
            attempted += 1
            if not op_ok(v, ref):
                failed += 1
                problems.append(f"op {i}: verdict {v!r}, reference {ref!r}")
    ops = len(reference)
    wall = statistics.median(p["wall_s"] for p in passes)
    if args.trace:
        layers = dict(traced[0]["layers"])
        for k, (value, unit) in layers.items():
            if unit == "count" and traced[1]["layers"][k][0] != value:
                problems.append(f"{k} differs between traced runs: "
                                f"{value} vs {traced[1]['layers'][k][0]}")
            if unit == "s":
                layers[k] = (statistics.median(t["layers"][k][0] for t in traced), unit)
        for layer in traced[0]["loads"]:
            if layers[f"{layer}.calls"][0] == 0:
                problems.append(f"{layer} is listed as loaded but recorded no calls")
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        layers["trace_overhead"] = (traced_wall / wall, "ratio")
        layers["traced_wall_s"] = (traced_wall, "s")
        layers["untraced_wall_s"] = (wall, "s")
        metrics = layers
    else:
        decided = sum(v in ("holds", "fails") for v in passes[0]["verdicts"])
        op_s = [t for p in passes for t in p["op_s"]]
        metrics = {
            "wall_s": (wall, "s"),
            "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(op_s, n=10)[-1], "ms"),
            "pass_ratio": (1 - failed / attempted, "ratio"),
            "decided_ratio": (decided / ops, "ratio"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    for line in problems[:50]:
        print(f"problem: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} ops={ops} passes={len(passes)} "
          f"traced_passes={len(traced)} setup_samples={len(setup)} "
          f"attempted={attempted} failed={failed}")
    for k, (value, unit) in metrics.items():
        print(f"{k:44s} {value:14.6f} {unit}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="op count (0: the workload's own)")
    args = ap.parse_args(argv)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
