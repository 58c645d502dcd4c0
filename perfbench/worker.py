"""One benchmark process: set-up only, one timed pass, or the reference check.

Usage: python3 worker.py {setup|pass|trace|check} WORKLOAD SEED OPS WORKDIR

Each pass runs in a fresh interpreter so that the module-global memos start
empty, as they do for a user of the CLI.  The last line of standard output is
one JSON object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Set-up ends once the package and its CLI are imported.
import ghyltl.cli  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402


def main(argv: list[str]) -> dict:
    mode, name, seed, n_ops, workdir = argv[0], argv[1], int(argv[2]), int(argv[3]), argv[4]
    if not os.path.abspath(ghyltl.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"ghyltl was imported from {ghyltl.cli.__file__}, not {SRC}")
    if mode == "setup":
        return {"ready": READY}
    from workloads import WORKLOADS
    w = WORKLOADS[name]
    inputs = w.make(random.Random(seed), n_ops or w.ops, workdir)
    if mode == "check":
        return {"reference": [w.reference(x) for x in inputs]}
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    verdicts, op_s = [], []
    clock = time.perf_counter
    start = clock()
    for x in inputs:
        t0 = clock()
        try:
            verdict = w.run(x)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            verdict = f"error: {type(exc).__name__}: {exc}"
        op_s.append(clock() - t0)
        verdicts.append(verdict)
    wall_s = clock() - start
    out = {"ready": READY, "wall_s": wall_s, "op_s": op_s, "verdicts": verdicts,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["loads"] = list(w.loads)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
