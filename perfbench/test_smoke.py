#!/usr/bin/env python3
"""The benchmark's own test: run every workload in smoke mode (tiny sizes).

    python3 perfbench/test_smoke.py

For each workload named in BENCHMARK.json, untraced and traced, it checks
that the result line names exactly the metrics BENCHMARK.json lists, each
with its unit and a finite value, and that the correctness gate passed.
It also checks that the benchmark fails, without a result line, when the
program's sources are missing. Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check(cond, message):
    if not cond:
        print("FAIL: " + message)
        sys.exit(1)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            where = "%s --trace %d" % (workload, trace)
            check(done.returncode == 0,
                  "%s exited %d:\n%s" % (where, done.returncode,
                                         done.stderr[-2000:]))
            result = json.loads(done.stdout.strip().split("\n")[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, where + ": result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  where + ": correctness gate failed:\n" + done.stderr)
            check(result["attempted"] >= 1, where + ": nothing attempted")
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]),
                  "%s: metric names differ: missing %s, extra %s" % (
                      where, sorted(set(expected[trace]) - set(metrics)),
                      sorted(set(metrics) - set(expected[trace]))))
            for name, unit in expected[trace].items():
                value = metrics[name]["value"]
                check(metrics[name]["unit"] == unit,
                      "%s: %s has unit %r, want %r" % (
                          where, name, metrics[name]["unit"], unit))
                check(isinstance(value, (int, float)) and
                      math.isfinite(value),
                      "%s: %s is not a finite number" % (where, name))
            print("ok: " + where)

    # Without the program's sources the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "a checkout without sources must fail")
    check(done.stdout.strip() == "",
          "a failed run must not print a result: " + done.stdout)
    print("ok: fails without sources")


if __name__ == "__main__":
    main()
