"""fieldprobe benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` the program is wrapped by the span tracer and the last line
holds the per-layer metrics instead. Both run the correctness checks.
The line before it is a record of the machine, thread settings, seed and
checks. README.md describes the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

WORK_DIR = ".bench_work"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
SWEEP_RESOLUTIONS = (16, 32, 64)
# glibc's sysconf name for the level-3 cache size
_SC_LEVEL3_CACHE_SIZE = 194


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (used by selftest.py)")
    return parser.parse_args(argv)


def limit_blas_threads(nproc):
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    settings = {}
    for variable in BLAS_THREAD_VARIABLES:
        try:
            wanted = int(os.environ.get(variable, nproc))
        except ValueError:
            wanted = nproc
        settings[variable] = os.environ[variable] = str(max(1, min(wanted,
                                                                   nproc)))
    return settings


def import_program(root):
    """Import fieldprobe from the checkout's own sources, nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fieldprobe", "__init__.py")):
        raise SystemExit("perfbench: %s has no src/fieldprobe; run from the "
                         "repository root" % root)
    sys.path.insert(0, src)
    import fieldprobe
    import fieldprobe.trainer
    if not os.path.abspath(fieldprobe.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported fieldprobe from %s, not %s"
                         % (fieldprobe.__file__, src))
    return fieldprobe


def machine_record(nproc, threads):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    return {
        "nproc": nproc,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": threads,
        "l3_bytes": libc.sysconf(_SC_LEVEL3_CACHE_SIZE),
    }


def code_digest(root):
    """Hash of the program and benchmark sources, keying the record that
    same code and same seed must reproduce."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, _, files in sorted(os.walk(os.path.join(root, top))):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Checks:
    def __init__(self):
        self.results = {}

    def add(self, name, ok, detail):
        """Record a check; a repeated check keeps its first failure."""
        if self.results.get(name, {"ok": True})["ok"]:
            self.results[name] = {"ok": bool(ok), "detail": detail}

    @property
    def ok(self):
        return all(item["ok"] for item in self.results.values())


def setup(fieldprobe, wl, seed, target):
    """Synthetic generation plus a cold cache build of both manifests
    through `FieldCache.field_for`, disk writes included; seconds taken."""
    trainer = fieldprobe.trainer
    spec = fieldprobe.synthetic.SyntheticSpec(seed=seed, **wl.spec)
    cfg = wl.train_config(fieldprobe, seed, 1, "", "", "")
    cache = trainer.FieldCache(os.path.join(target, "cache"), cfg.resolution,
                               cfg.channels, cfg.samples_per_area)
    start = time.perf_counter()
    for manifest in fieldprobe.synthetic.generate_synthetic(
            spec, os.path.join(target, "data")):
        dataset = trainer.ShapeDataset(manifest, cfg.resolution)
        for index in range(len(dataset)):
            cache.field_for(dataset, index)
    return time.perf_counter() - start


def fresh_setup(fieldprobe, wl, seed, target, phase):
    """One timed set-up into `target`, replacing the last one. The path
    stays the same, because it ends up in the checkpoint."""
    shutil.rmtree(target, ignore_errors=True)
    with phase("setup"):
        seconds = setup(fieldprobe, wl, seed, target)
    flush_files(target)
    return seconds


def flush_files(directory):
    """Write our own set-up files to disk now, so that their writeback
    does not land inside the timed training."""
    for base, _, files in os.walk(directory):
        for name in files:
            fd = os.open(os.path.join(base, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def timed_training(fieldprobe, cfg, phase):
    """One `train()` timed from outside, with its metrics.csv columns and
    the digest of its final.fpck (None when it raised)."""
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        with phase("train"):
            result = fieldprobe.trainer.train(cfg)
    except Exception:
        traceback.print_exc()
        result = None
    wall_s = time.perf_counter() - start
    losses, wall_ms = read_metrics_csv(os.path.join(cfg.out_dir,
                                                    "metrics.csv"))
    digest = sha256_file(result.checkpoint_path) if result else None
    return result, wall_s, losses, wall_ms, digest


def timed_evaluations(fieldprobe, checkpoint, cfg, perturb, min_seconds,
                      phase):
    """One pass of `evaluate_checkpoint`, more while under `min_seconds`,
    so short evaluations are timed over enough work to be steady.
    Returns (test samples, seconds of each pass, accuracies, failed)."""
    test_count = len(fieldprobe.ingest.load_manifest(cfg.test_manifest))
    passes, accuracies, failed = [], [], 0
    begin = time.perf_counter()
    while not (passes or failed) or \
            time.perf_counter() - begin < min_seconds:
        start = time.perf_counter()
        try:
            with phase("eval"):
                scored = fieldprobe.trainer.evaluate_checkpoint(
                    checkpoint, cfg.test_manifest, perturb=perturb,
                    cache_dir=cfg.cache_dir)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        passes.append(time.perf_counter() - start)
        accuracies.append(scored.accuracy)
    return test_count, passes, accuracies, failed


def read_metrics_csv(path):
    losses, wall_ms = [], []
    with open(path, encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            fields = line.rstrip("\n").split(",")
            losses.append(float(fields[1]))
            wall_ms.append(float(fields[4]))
    return losses, wall_ms


def tail_ms(wall_ms):
    """The highest percentile with at least ten iterations beyond it, and
    that percentile's rank."""
    ordered = sorted(wall_ms)
    count = len(ordered)
    return ordered[count - 11], 100.0 * (count - 10) / count


def resolution_sweep(fieldprobe, seed):
    """Median single-sample probing forward+backward at each resolution,
    stock 4-channel bank, through the first layer of the built network."""
    import numpy as np
    trainer, synthetic = fieldprobe.trainer, fieldprobe.synthetic
    shape = synthetic.make_shape("torus", synthetic.sample_rng(
        synthetic.SyntheticSpec(seed=seed), "test", 0, 0), 0.4)
    timings, macs = {}, None
    for resolution in SWEEP_RESOLUTIONS:
        cfg = trainer.TrainConfig(resolution=resolution,
                                  channels="distance+normals",
                                  filters_per_cell=16, classes=2)
        occ = fieldprobe.ingest.voxelize(
            fieldprobe.ingest.normalize(shape, resolution), resolution,
            seed=seed)
        field = trainer.build_field(occ, cfg.channels)
        field.gradients  # the lazy stack is built once per cached field
        net, _, _ = trainer.build_model(cfg)
        layer = net.layers[0]
        macs = fieldprobe.probing.mac_count(layer.bank)
        upstream = np.ones((1, layer.bank.filter_count))
        samples = []
        deadline = time.perf_counter() + 0.5
        while len(samples) < 7 or (time.perf_counter() < deadline
                                   and len(samples) < 200):
            start = time.perf_counter()
            layer.forward([field], train=True)
            layer.backward(upstream)
            samples.append((time.perf_counter() - start) * 1e3)
        timings[resolution] = statistics.median(samples)
    metrics = {"probing.fwdbwd_ms.r%d" % r: (timings[r], "ms")
               for r in SWEEP_RESOLUTIONS}
    metrics["probing.r64_over_r16"] = (timings[64] / timings[16], "ratio")
    metrics["probing.macs_per_sample"] = (macs, "count")
    return metrics


def run(args, root):
    nproc = len(os.sched_getaffinity(0))
    threads = limit_blas_threads(nproc)
    fieldprobe = import_program(root)
    import numpy as np
    import spans
    from workloads import NAMES, workload

    if args.workload not in NAMES:
        raise SystemExit("perfbench: unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(NAMES)))
    wl = workload(args.workload, nproc, tiny=args.tiny)
    iterations = wl.iterations(args.seconds)
    # relative and free of the process id, because the paths end up in
    # the checkpoint's config text and so in its digest
    work = os.path.join(WORK_DIR, "%s-s%d%s" % (wl.name, args.seed,
                                                "-tiny" if args.tiny else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    checks = Checks()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny,
              "iterations": iterations,
              "machine": machine_record(nproc, threads)}
    tracer = None
    attempted = failed = 0
    metrics = {}
    try:
        if args.trace:
            metrics.update(resolution_sweep(fieldprobe, args.seed))
            tracer = spans.Tracer()
            tracer.install()
        phase = tracer.phase_of if tracer else (
            lambda name: contextlib.nullcontext())

        target = os.path.join(work, "setup")
        cfg = wl.train_config(fieldprobe, args.seed, iterations,
                              os.path.join(target, "data"),
                              os.path.join(target, "cache"),
                              os.path.join(work, "run"))
        record["config"] = cfg.to_text().splitlines()

        # Each block sets up afresh, trains the same config, which must
        # give the same bytes, and then evaluates. Machine speed drifts
        # over tens of seconds, so spreading every metric over the whole
        # run steadies it more than timing one long stretch.
        blocks = 1 if tracer else wl.blocks
        eval_seconds = 0.0 if tracer else wl.eval_seconds(args.seconds)
        setup_times, train_seconds, wall_ms, digests = [], 0.0, [], []
        eval_passes, accuracies = [], []
        for _ in range(blocks):
            setup_times.append(fresh_setup(fieldprobe, wl, args.seed,
                                           target, phase))
            attempted += iterations
            result, wall_s, losses, block_wall_ms, digest = timed_training(
                fieldprobe, cfg, phase)
            finite = sum(1 for loss in losses if np.isfinite(loss))
            failed += iterations - finite
            checks.add("losses_finite", finite == len(losses) == iterations,
                       "%d of %d iterations logged a finite loss"
                       % (finite, iterations))
            coverage = sum(block_wall_ms) / 1e3 / wall_s
            checks.add("wall_ms_covers_train", coverage >= 0.9,
                       "sum(wall_ms) is %.3f of the timed train() (>= 0.9)"
                       % coverage)
            if result is None:
                raise RuntimeError("train() failed")
            train_seconds += wall_s
            wall_ms += block_wall_ms
            digests.append(digest)

            test_count, block_passes, block_accuracies, eval_failures = \
                timed_evaluations(fieldprobe, result.checkpoint_path, cfg,
                                  wl.eval_perturb, eval_seconds, phase)
            attempted += test_count * (len(block_passes) + eval_failures)
            failed += test_count * eval_failures
            eval_passes += block_passes
            accuracies += block_accuracies
        record["setup_s"] = setup_times
        checks.add("trainings_identical", len(set(digests)) == 1,
                   "final.fpck sha256 of each training: %s" % digests)
        tail, tail_rank = tail_ms(wall_ms)
        record["iter_ms_tail_percentile"] = tail_rank
        record["iter_ms_samples"] = len(wall_ms)
        record["eval_pass_s"] = eval_passes
        if not accuracies:
            raise RuntimeError("evaluate_checkpoint() failed")
        accuracy = accuracies[0]
        chance = 1.0 / result.config.classes
        checks.add("accuracy_above_chance", accuracy > chance,
                   "test accuracy %.4f vs chance %.4f" % (accuracy, chance))
        checks.add("eval_repeatable", len(set(accuracies)) == 1,
                   "accuracies over %d evaluations: %s"
                   % (len(accuracies), sorted(set(accuracies))))
        if not wl.eval_perturb:
            checks.add("eval_matches_train", accuracy == result.test_accuracy,
                       "evaluate_checkpoint %.4f vs train() %.4f"
                       % (accuracy, result.test_accuracy))

        # same code, seed and thread settings in another run: same bytes
        key = "|".join([code_digest(root), wl.name, str(args.seed),
                        repr(args.seconds), str(args.tiny),
                        json.dumps(threads, sort_keys=True)])
        previous = read_known_digests(root).get(key)
        checks.add("checkpoint_reproducible", previous in (None, digest),
                   "final.fpck sha256 %s, earlier run %s"
                   % (digest, previous or "none"))
        if previous is None:
            remember_digest(root, key, digest)
        record["final_fpck_sha256"] = digest

        if tracer:
            tracer.uninstall()
            layer, span_count = spans.layer_metrics(tracer)
            metrics.update(layer)
            cost = spans.span_cost()
            metrics["trace.overhead"] = (
                span_count * cost / tracer.traced_seconds(), "ratio")
            metrics["trainer.ckpt_bytes"] = (
                os.path.getsize(result.checkpoint_path), "bytes")
            record["spans"] = span_count
            record["span_cost_us"] = cost * 1e6
        else:
            metrics.update({
                "setup_s": (statistics.median(setup_times), "s"),
                "train_samples_per_s": (
                    blocks * iterations * cfg.batch_size / train_seconds,
                    "1/s"),
                "iter_ms_p50": (statistics.median(wall_ms), "ms"),
                "iter_ms_tail": (tail, "ms"),
                "eval_samples_per_s": (
                    test_count * len(eval_passes) / sum(eval_passes), "1/s"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "test_accuracy": (accuracy, "ratio"),
            })
    except Exception:
        traceback.print_exc()
        checks.add("completed", False, "the run raised; see stderr")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    record["checks"] = checks.results
    print(json.dumps({"record": record}, sort_keys=True))
    return {
        "correct": checks.ok and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def _digest_path(root):
    return os.path.join(root, WORK_DIR, "final_fpck_sha256.json")


def read_known_digests(root):
    try:
        with open(_digest_path(root), encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def remember_digest(root, key, digest):
    known = read_known_digests(root)
    known[key] = digest
    tmp = _digest_path(root) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(known, handle, sort_keys=True, indent=1)
    os.replace(tmp, _digest_path(root))


def main(argv=None):
    args = parse_args(argv)
    print(json.dumps(run(args, os.getcwd()), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
