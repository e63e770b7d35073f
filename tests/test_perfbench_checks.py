"""The benchmark's own output checks pass on the program at tiny sizes.

`perfbench/run.py` checks its outputs as it measures: finite losses,
identical trainings, a checkpoint that reproduces an earlier run's
digest, and repeatable evaluations. A run with a failed check is not a
measurement, so each workload runs here twice, from a copy of the
program and the benchmark, the second run comparing its digest with the
first's. `wall_ms_covers_train` is not asserted: at `--tiny` sizes the
fixed set-up cost of a training dominates its few iterations.

A traced run of each workload must also report every per-layer metric
`BENCHMARK.json` names, each above zero, save the stages that workload
never calls. A metric whose name still resolves but reads 0 shows that
the program stopped calling what it times.
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
    _BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]
PER_LAYER = [m["name"] for m in _BENCHMARK["per_layer"]]
# stages a workload never calls: both train on the stock distance-only
# fields, and desk on unperturbed views
NEVER_CALLED = {"desk": {"field.normals_ms", "ingest.perturb_ms"},
                "augment": {"field.normals_ms"}}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the program and the benchmark, as a run needs them."""
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for tree in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, tree), root / tree, ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def run_tiny(root, workload, *flags):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--tiny", *flags],
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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_are_live(checkout, workload):
    _, result = run_tiny(checkout, workload, "--trace", "1")
    metrics = result["metrics"]
    missing = [name for name in PER_LAYER if name not in metrics]
    assert not missing, missing
    idle = [name for name in PER_LAYER if not metrics[name]["value"] > 0]
    assert set(idle) <= NEVER_CALLED[workload], idle
