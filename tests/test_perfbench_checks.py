"""The benchmark's own output checks pass on the program at tiny sizes.

`perfbench/run.py` checks its outputs as it measures: finite losses,
identical trainings, a checkpoint that reproduces an earlier run's
digest, and repeatable evaluations. A run with a failed check is not a
measurement, so each workload runs here twice, from a copy of the
program and the benchmark, the second run comparing its digest with the
first's. `wall_ms_covers_train` is not asserted: at `--tiny` sizes the
fixed set-up cost of a training dominates its few iterations.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKS = ("losses_finite", "trainings_identical", "checkpoint_reproducible",
          "eval_repeatable")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    WORKLOADS = [w["name"] for w in json.load(_handle)["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the program and the benchmark, as a run needs them."""
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for tree in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, tree), root / tree, ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def run_tiny(root, workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--tiny"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_pass_their_checks(checkout, workload):
    digests = []
    for _ in range(2):
        record, result = run_tiny(checkout, workload)
        assert result["failed"] == 0
        checks = record["checks"]
        for name in CHECKS:
            assert checks[name]["ok"], (name, checks[name]["detail"])
        digests.append(record["final_fpck_sha256"])
    # the second run found the first one's digest and matched it
    assert "earlier run none" not in checks["checkpoint_reproducible"]["detail"]
    assert digests[0] == digests[1]
