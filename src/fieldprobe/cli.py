"""Command-line entry points.

One executable, `fieldprobe`, with a subcommand per workflow step:
shape-to-field conversion, synthetic dataset generation, training (also
from a donor checkpoint's probing bank, which with `freeze_probing=true`
in the config is a head-only fine-tune), evaluation, feature export,
gradient auditing, and the benchmark that times the stock probing bank
against the stock convolution. Every command is a thin shell over the
library; anything scriptable here is equally scriptable in Python.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import run_bench
from .errors import FormatError, ParseError, TrainingDiverged
from .field import save_field
from .ingest import DEFAULT_SAMPLES_PER_AREA, load_shape, normalize, voxelize
from .synthetic import SyntheticSpec, generate_synthetic
from .trainer import (
    CHANNEL_SETS,
    TrainConfig,
    build_field,
    evaluate_checkpoint,
    extract_features,
    gradient_check_report,
    sample_seed,
    train,
)

GRADCHECK_TOLERANCE = 1e-4


def _cmd_voxelize(args):
    shape = load_shape(args.source)
    shape = normalize(shape, args.res)
    seed = sample_seed(os.path.basename(args.source))
    occ = voxelize(shape, args.res, args.samples_per_area, seed=seed)
    field = build_field(occ, args.channels)
    save_field(field, args.out)
    print("wrote %s: %d^3, %d channel(s), %d occupied voxels"
          % (args.out, args.res, field.values.shape[0],
             int(occ.bits.sum())))
    return 0


def _cmd_gen_synthetic(args):
    spec = SyntheticSpec.from_file(args.spec)
    train_manifest, test_manifest = generate_synthetic(spec, args.out)
    print("train manifest: %s" % train_manifest)
    print("test manifest:  %s" % test_manifest)
    return 0


def _cmd_train(args):
    cfg = TrainConfig.from_file(args.config)
    result = train(cfg, resume=args.resume, donor=args.donor)
    print("checkpoint: %s" % result.checkpoint_path)
    print("metrics:    %s" % result.metrics_path)
    if np.isfinite(result.test_accuracy):
        print("test accuracy: %.6f" % result.test_accuracy)
    return 0


def _cmd_eval(args):
    result = evaluate_checkpoint(args.ckpt, args.manifest,
                                 perturb=args.perturb,
                                 cache_dir=args.cache_dir)
    print("accuracy: %.6f" % result.accuracy)
    print("confusion (rows true, cols predicted):")
    for row in result.confusion:
        print("  " + " ".join("%5d" % v for v in row))
    return 0


def _cmd_extract_features(args):
    extract_features(args.ckpt, args.manifest, args.out,
                     cache_dir=args.cache_dir)
    print("wrote %s" % args.out)
    return 0


def _cmd_gradcheck(args):
    report = gradient_check_report(layer=args.layer)
    worst = 0.0
    for name in sorted(report):
        error = report[name]
        worst = max(worst, error)
        status = "ok" if error <= GRADCHECK_TOLERANCE else "FAIL"
        print("%-10s max rel err %.3e  %s" % (name, error, status))
    if worst > GRADCHECK_TOLERANCE:
        print("worst error %.3e exceeds %.0e" % (worst, GRADCHECK_TOLERANCE),
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args):
    resolutions = [int(part) for part in args.resolutions.split(",") if part]
    report = run_bench(resolutions, stride=args.stride)
    for row in report.rows:
        print("%4d %-10s %10.3f ms (+/- %.3f)  %12d MACs" %
              (row.resolution, row.kind, row.mean_ms, row.std_ms, row.macs))
    if args.out:
        report.to_csv(args.out)
        print("wrote %s" % args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fieldprobe",
        description="Field-probing networks for 3D shape classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voxelize",
                       help="convert one shape file into a field file")
    p.add_argument("--in", dest="source", required=True, metavar="SHAPE",
                   help="input .off mesh or .xyz point cloud")
    p.add_argument("--res", type=int, required=True,
                   help="grid resolution R (field is R^3)")
    p.add_argument("--out", required=True, help="output field (.fpf) path")
    p.add_argument("--channels", default="distance+normals",
                   choices=sorted(CHANNEL_SETS))
    p.add_argument("--samples-per-area", type=float,
                   default=DEFAULT_SAMPLES_PER_AREA)
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("gen-synthetic",
                       help="generate the synthetic five-primitive dataset")
    p.add_argument("--spec", required=True,
                   help="key=value spec file (classes, counts, jitter, seed)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a classifier from a config file")
    p.add_argument("--config", required=True, help="key=value config file")
    start = p.add_mutually_exclusive_group()
    start.add_argument("--resume", default=None, metavar="CKPT",
                       help="checkpoint to continue from")
    start.add_argument("--donor", default=None, metavar="CKPT",
                       help="checkpoint whose probing bank the run starts "
                            "from, with a new head")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--perturb", default="", metavar="MODES",
                   help="perturbation modes, e.g. R15+T01+S")
    p.add_argument("--cache-dir", default="")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("extract-features",
                       help="write last-hidden-layer features as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cache-dir", default="")
    p.set_defaults(func=_cmd_extract_features)

    p = sub.add_parser("gradcheck",
                       help="finite-difference audit of analytic gradients")
    p.add_argument("--layer", default=None,
                   help="audit one recipe (fc, bn, dropout, composed, "
                        "probing); default audits all")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("bench",
                       help="time probing vs fixed-stride 3D convolution")
    p.add_argument("--resolutions", default="16,32,64",
                   help="comma list of grid resolutions")
    p.add_argument("--out", default="", help="write the report CSV here")
    p.add_argument("--stride", type=int, default=2,
                   help="convolution stride, kept at every resolution, so "
                        "the sliding positions grow with resolution")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FormatError, TrainingDiverged, ValueError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
