"""Self-test of the benchmark at tiny sizes: a few ops per workload.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    SPEC = json.load(_fp)

# Enough ops that every layer a workload lists as loaded is reached.
TINY_OPS = {"gadget-mul-context": 4, "sat-unsat-sweep": 10, "cli-stutter-corpus": 30,
            "prenex-pos-corpus": 40}


def bench(cwd, *args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_spec():
    assert sorted(TINY_OPS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY_OPS))
def test_tiny_run(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--ops", str(TINY_OPS[workload]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(tmp_path, "--workload", "sat-unsat-sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
