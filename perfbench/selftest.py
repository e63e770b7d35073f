"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

Every workload runs once untraced and once traced with `--tiny`. Each
result line must hold exactly the metrics BENCHMARK.json names for that
mode, each a finite number with the declared unit. A copy of the
benchmark with no program beside it must fail without a result line.
Exits non-zero if anything does not match.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 300


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(declared, line, where):
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(result))
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1):
        problems.append("attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not an integer")
    metrics = result.get("metrics", {})
    for name in sorted(set(declared) | set(metrics)):
        if name not in metrics:
            problems.append("%s missing" % name)
        elif name not in declared:
            problems.append("%s not declared in BENCHMARK.json" % name)
        else:
            entry = metrics[name]
            if set(entry) != {"value", "unit"}:
                problems.append("%s has keys %s" % (name, sorted(entry)))
            elif entry["unit"] != declared[name]:
                problems.append("%s unit %r, declared %r"
                                % (name, entry["unit"], declared[name]))
            elif isinstance(entry["value"], bool) or \
                    not isinstance(entry["value"], (int, float)) or \
                    not math.isfinite(entry["value"]):
                problems.append("%s value %r" % (name, entry["value"]))
    return ["%s: %s" % (where, p) for p in problems]


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            where = "%s --trace %d" % (workload, trace)
            done = run_bench(root, "--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace), "--tiny")
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s"
                                % (where, done.returncode, done.stderr[-2000:]))
                continue
            found = check_result(declared[trace], lines[-1], where)
            problems += found
            print("FAIL" if found else "ok", where, flush=True)

    bare = os.path.join(root, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "--workload", "desk", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append("without a program: exit %d, stdout %r"
                            % (done.returncode, done.stdout[-500:]))
        else:
            print("ok without a program: exit %d" % done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
