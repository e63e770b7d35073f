"""End-to-end acceptance gates for the shipped pipeline.

Each test exercises one numbered criterion at its stated tolerance and
records a scorecard line before asserting, so the printed summary keeps
the measured values even for a criterion that fails. The heavyweight
fixtures (full training runs on the packaged synthetic dataset) are
module-scoped and shared across criteria.
"""

import math
import os
import shutil
import time

import numpy as np
import pytest

from fieldprobe.bench import ConvConfig, run_bench
from fieldprobe.errors import FormatError
from fieldprobe.field import (
    ROLE_GENERIC,
    load_field,
    sample_field,
    save_field,
    squared_distance_transform,
)
from fieldprobe.ingest import OccupancyGrid, load_shape, normalize, voxelize
from fieldprobe.nn import Dropout, ReLU, block_error, grad_check, numeric_gradient
from fieldprobe.probing import (
    FilterBank,
    dotproduct_backward,
    dotproduct_forward,
    gaussian_backward,
    gaussian_forward,
    sensor_backward,
    sensor_forward,
)
from fieldprobe.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    multilinear_field,
)
from fieldprobe.trainer import (
    TrainConfig,
    bn_error,
    build_field,
    composed_error,
    dropout_error,
    evaluate_checkpoint,
    extract_features,
    fc_error,
    load_checkpoint,
    save_checkpoint,
    train,
)

TOL_ISOLATED = 1e-5
TOL_COMPOSED = 1e-4
INSTANCES = 100
FD_STEP = 1e-5

# the dataset hardness the reference runs train on: enough orientation
# and proportion variation that probing placement genuinely matters
JITTER = 0.4


# --------------------------------------------------------------------------
# finite-difference checks of the probing stages and the loss; A1's fc,
# batchnorm, dropout-mask and composed-1fc recipes are the trainer's, which
# `fieldprobe gradcheck` runs too


def _sensor_error(seed):
    rng = np.random.default_rng(seed)
    res = 6
    fields = [multilinear_field(rng, res, [ROLE_GENERIC] * 2)[0]]
    bank = FilterBank(rng.uniform(0.5, res - 1.5, size=(2, 3, 3)),
                      rng.standard_normal((2, 3, 2)), res)
    proj = rng.standard_normal((1, 2, 3, 2))

    def loss():
        values, _ = sensor_forward(bank, fields, with_gradients=False)
        return float((values * proj).sum())

    _, gradients = sensor_forward(bank, fields, with_gradients=True)
    return block_error(sensor_backward(gradients, proj),
                       numeric_gradient(loss, bank.locations, FD_STEP))


def _gaussian_error(seed):
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(0.5, 3.0))
    x = rng.uniform(-3.0 * sigma, 3.0 * sigma, size=(3, 2, 2))
    proj = rng.standard_normal(x.shape)

    def loss():
        return float((gaussian_forward(x, sigma) * proj).sum())

    analytic = gaussian_backward(x, proj, sigma)
    return block_error(analytic,
                       numeric_gradient(loss, x, 1e-6 * max(1.0, sigma)))


def _dotproduct_error(seed):
    rng = np.random.default_rng(seed)
    res = 8
    bank = FilterBank(rng.uniform(1.0, res - 2.0, size=(3, 4, 3)),
                      rng.standard_normal((3, 4, 2)), res)
    values = rng.standard_normal((1, 3, 4, 2))
    proj = rng.standard_normal((1, 3))

    def loss():
        return float((dotproduct_forward(bank, values) * proj).sum())

    value_grads, weight_grads = dotproduct_backward(bank, values, proj)
    err_weights = block_error(weight_grads,
                              numeric_gradient(loss, bank.weights, FD_STEP))
    err_values = block_error(value_grads,
                             numeric_gradient(loss, values, FD_STEP))
    return max(err_weights, err_values)


def _relu_error(seed):
    x = np.random.default_rng(seed).standard_normal((6, 5))
    x += np.where(x >= 0.0, 0.05, -0.05)  # finite differences lie at the kink
    return grad_check(ReLU(), x, step=FD_STEP, seed=seed)["input"]


def _softmax_ce_error(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((6, 5)) * 2.0
    labels = rng.integers(0, 5, size=6)
    # rate-0 dropout is the identity, so its input gradient is the loss's
    return grad_check(Dropout(0.0), logits, labels=labels, step=FD_STEP,
                      seed=seed)["input"]


# --------------------------------------------------------------------------
# shared training fixtures


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The packaged five-class dataset at the reference hardness."""
    root = tmp_path_factory.mktemp("acceptance")
    spec = SyntheticSpec(jitter=JITTER)
    train_tsv, test_tsv = generate_synthetic(spec, str(root / "data"))
    return {"root": root, "train": train_tsv, "test": test_tsv,
            "cache": str(root / "cache")}


def desk_config(workspace, out_name, **overrides):
    return TrainConfig(train_manifest=workspace["train"],
                       test_manifest=workspace["test"],
                       cache_dir=workspace["cache"],
                       out_dir=str(workspace["root"] / out_name),
                       **overrides)


@pytest.fixture(scope="module")
def desk_run(workspace):
    """The reference run: stock config on the stock dataset."""
    cfg = desk_config(workspace, "desk")
    start = time.perf_counter()
    result = train(cfg)
    return cfg, result, time.perf_counter() - start


@pytest.fixture(scope="module")
def frozen_run(workspace):
    """Identical seeds, probing locations and weights never move."""
    return train(desk_config(workspace, "frozen", freeze_probing=True))


@pytest.fixture(scope="module")
def augmented_run(workspace):
    """Retrained under train-time perturbations, scored under the same
    perturbation protocol. Views are built on two pipeline workers, which
    changes wall time only (see test_worker_count_does_not_change_results)."""
    cfg = desk_config(workspace, "augmented", augmentation="R15+T01+S",
                      pipeline_workers=2)
    result = train(cfg)
    scored = evaluate_checkpoint(result.checkpoint_path, workspace["test"],
                                 perturb="R15+T01+S",
                                 cache_dir=workspace["cache"])
    return result, scored


@pytest.fixture(scope="module")
def transfer_runs(tmp_path_factory):
    """A two-class donor and a head-only fine-tune on two held-out
    classes from disjoint generator seeds."""
    root = tmp_path_factory.mktemp("transfer")
    donor_spec = SyntheticSpec(classes=("sphere", "box"), train_per_class=50,
                               test_per_class=20, jitter=JITTER, seed=2)
    held_spec = SyntheticSpec(classes=("cylinder", "torus"),
                              train_per_class=50, test_per_class=20,
                              jitter=JITTER, seed=3)
    donor_tr, donor_te = generate_synthetic(donor_spec, str(root / "donor"))
    held_tr, held_te = generate_synthetic(held_spec, str(root / "held"))
    donor = train(TrainConfig(train_manifest=donor_tr, test_manifest=donor_te,
                              cache_dir=str(root / "cache"),
                              out_dir=str(root / "donor_run"),
                              max_iterations=800, checkpoint_every=800,
                              eval_every=0))
    tuned_cfg = TrainConfig(train_manifest=held_tr, test_manifest=held_te,
                            cache_dir=str(root / "cache"),
                            out_dir=str(root / "tuned_run"),
                            max_iterations=800, checkpoint_every=800,
                            eval_every=0, freeze_probing=True)
    tuned = train(tuned_cfg, donor=donor.checkpoint_path)
    return donor, tuned


# --------------------------------------------------------------------------
# criteria


def test_a1_gradient_checks(acceptance):
    start = time.perf_counter()
    checks = [
        ("sensor", _sensor_error, TOL_ISOLATED),
        ("gaussian", _gaussian_error, TOL_ISOLATED),
        ("dotproduct", _dotproduct_error, TOL_ISOLATED),
        ("fc", fc_error, TOL_ISOLATED),
        ("batchnorm", bn_error, TOL_ISOLATED),
        ("relu", _relu_error, TOL_ISOLATED),
        ("dropout-mask", dropout_error, TOL_ISOLATED),
        ("softmax-ce", _softmax_ce_error, TOL_ISOLATED),
        ("composed-1fc", composed_error, TOL_COMPOSED),
    ]
    worst = {name: max(run(10_000 * k + i) for i in range(INSTANCES))
             for k, (name, run, _) in enumerate(checks)}
    wall = time.perf_counter() - start
    isolated = max(err for name, err in worst.items()
                   if name != "composed-1fc")
    composed = worst["composed-1fc"]
    ok = isolated <= TOL_ISOLATED and composed <= TOL_COMPOSED and wall < 60.0
    acceptance("A1", ok,
               "isolated max rel err %.2e (<= 1e-5), composed %.2e (<= 1e-4),"
               " %d instances per layer, %.1fs (< 60)"
               % (isolated, composed, INSTANCES, wall))
    for name, _, tol in checks:
        assert worst[name] <= tol, ("%s max rel err %.3e exceeds %g"
                                    % (name, worst[name], tol))
    assert wall < 60.0


def test_a2_distance_transform_matches_brute_force(acceptance):
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    checked = 0
    while checked < 100:
        r = int(rng.integers(4, 17))
        bits = rng.random((r, r, r)) < float(rng.uniform(0.01, 0.15))
        if not bits.any():
            continue
        got = squared_distance_transform(OccupancyGrid(r, bits))
        sites = np.argwhere(bits).astype(np.int64)
        coords = np.indices(bits.shape, dtype=np.int64).reshape(3, -1).T
        d2 = ((coords ** 2).sum(axis=1)[:, None]
              + (sites ** 2).sum(axis=1)[None, :]
              - 2 * coords @ sites.T)
        np.testing.assert_array_equal(got, d2.min(axis=1).reshape(bits.shape))
        checked += 1
    wall = time.perf_counter() - start
    ok = wall < 30.0
    acceptance("A2", ok, "squared EDT == brute force on 100 random grids "
                         "<= 16^3, %.1fs (< 30)" % wall)
    assert wall < 30.0


def test_a3_trilinear_exactness(acceptance):
    rng = np.random.default_rng(33)
    worst_rel = 0.0
    worst_ulps = 0.0
    for _ in range(10):
        res = int(rng.integers(5, 10))
        field, evaluate = multilinear_field(rng, res, [ROLE_GENERIC] * 2)
        pts = rng.uniform(0.0, res - 1.0, size=(1000, 3))
        got = sample_field([field], pts, with_gradients=False)[0][0]
        want = evaluate(pts).T
        scale = np.abs(want).max()
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-3 * scale)
        worst_rel = max(worst_rel, float(rel.max()))

        nodes = rng.integers(0, res, size=(50, 3))
        got_nodes = sample_field([field], nodes.astype(np.float64),
                                 with_gradients=False)[0][0]
        stored = field.values[:, nodes[:, 2], nodes[:, 1], nodes[:, 0]].T
        ulps = np.abs(got_nodes - stored) / np.spacing(np.abs(stored))
        worst_ulps = max(worst_ulps, float(ulps.max()))
    ok = worst_rel <= 1e-9 and worst_ulps <= 1.0
    acceptance("A3", ok,
               "trilinear family rel err %.2e at 10x1000 points (<= 1e-9), "
               "node reads within %.1f ulp (<= 1)" % (worst_rel, worst_ulps))
    assert worst_rel <= 1e-9
    assert worst_ulps <= 1.0


def test_a4_desk_scale_learning(desk_run, acceptance):
    _, result, wall = desk_run
    ok = result.test_accuracy >= 0.90 and wall < 600.0
    acceptance("A4", ok,
               "test accuracy %.4f (>= 0.90), training wall %.0fs (< 600)"
               % (result.test_accuracy, wall))
    assert result.test_accuracy >= 0.90
    assert wall < 600.0


def test_a5_probing_optimization_gain(desk_run, frozen_run, acceptance):
    _, trained, _ = desk_run
    frozen = frozen_run
    order_ok = frozen.test_accuracy <= trained.test_accuracy
    moved = trained.displacement
    ok = order_ok and moved > 0.5
    acceptance("A5", ok,
               "frozen %.4f <= trained %.4f (%s); mean point displacement "
               "%.3f voxels (> 0.5: %s)"
               % (frozen.test_accuracy, trained.test_accuracy,
                  "yes" if order_ok else "no", moved,
                  "yes" if moved > 0.5 else "no"))
    assert order_ok, ("frozen-probing accuracy %.4f exceeds trained %.4f"
                      % (frozen.test_accuracy, trained.test_accuracy))
    assert moved > 0.5, ("mean probing-point displacement is %.3f voxels, "
                         "not > 0.5" % moved)


def test_a6_resolution_agnostic_cost(acceptance):
    report = run_bench([16, 32, 64])
    probing_ratio = report.time_ratio("probing", 64, 16)
    conv_ratio = report.time_ratio("conv", 32, 16)
    probing_macs = {row.macs for row in report.rows if row.kind == "probing"}
    conv_macs = ConvConfig().macs()
    ok = (probing_ratio <= 2.0 and conv_ratio >= 5.6
          and probing_macs == {32768} and conv_macs == 17_915_904)
    acceptance("A6", ok,
               "probing t(64)/t(16) = %.2f (<= 2.0), conv t(32)/t(16) = %.2f"
               " (>= 5.6), probing MACs %s (= 32768), conv MACs %d"
               " (= 17915904)"
               % (probing_ratio, conv_ratio, sorted(probing_macs), conv_macs))
    assert probing_ratio <= 2.0
    assert conv_ratio >= 5.6
    assert probing_macs == {32768}
    assert conv_macs == 17_915_904


def test_a7_perturbation_robustness(desk_run, augmented_run, acceptance):
    _, desk, _ = desk_run
    _, scored = augmented_run
    drop = desk.test_accuracy - scored.accuracy
    ok = drop <= 0.10
    acceptance("A7", ok,
               "accuracy %.4f under R15+T01+S vs %.4f unperturbed, drop "
               "%.4f (<= 0.10)" % (scored.accuracy, desk.test_accuracy, drop))
    assert drop <= 0.10


def test_a8_transfer_beats_chance(transfer_runs, acceptance):
    donor, tuned = transfer_runs
    count = int(tuned.confusion.sum())
    bound = 0.5 + 3.0 * math.sqrt(0.25 / count)
    ok = tuned.test_accuracy > bound
    acceptance("A8", ok,
               "head-only transfer accuracy %.4f over %d held-out samples "
               "(> %.4f); donor accuracy %.4f"
               % (tuned.test_accuracy, count, bound, donor.test_accuracy))
    assert tuned.test_accuracy > bound


def test_a9_bitwise_reproducibility(workspace, acceptance):
    cfg = desk_config(workspace, "repro", max_iterations=40,
                      checkpoint_every=20, eval_every=0)
    out_dir = cfg.out_dir

    run_a = train(cfg)
    with open(run_a.checkpoint_path, "rb") as handle:
        final_a = handle.read()
    mid_path = os.path.join(out_dir, "ckpt_000020.fpck")
    with open(mid_path, "rb") as handle:
        mid_bytes = handle.read()

    # same config into the same directory: byte-identical checkpoints
    shutil.rmtree(out_dir)
    run_b = train(cfg)
    with open(run_b.checkpoint_path, "rb") as handle:
        final_b = handle.read()

    # resume from the midpoint reproduces the uninterrupted run
    shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    with open(mid_path, "wb") as handle:
        handle.write(mid_bytes)
    run_c = train(cfg, resume=mid_path)
    with open(run_c.checkpoint_path, "rb") as handle:
        final_c = handle.read()

    rerun_ok = final_a == final_b
    resume_ok = final_a == final_c
    acceptance("A9", rerun_ok and resume_ok,
               "identical rerun checkpoint bitwise equal: %s; resumed run "
               "bitwise equal: %s" % (rerun_ok, resume_ok))
    assert rerun_ok, "two identical runs produced different checkpoints"
    assert resume_ok, "resumed run diverged from the uninterrupted one"


def test_a10_format_round_trips(workspace, desk_run, tmp_path, acceptance):
    shapes_dir = os.path.join(os.path.dirname(workspace["train"]), "shapes")
    shape_path = os.path.join(shapes_dir, sorted(os.listdir(shapes_dir))[0])
    occ = voxelize(normalize(load_shape(shape_path), 32), 32, seed=7)
    field = build_field(occ, "distance+normals")

    first = str(tmp_path / "a.fpf")
    second = str(tmp_path / "b.fpf")
    save_field(field, first)
    save_field(load_field(first), second)
    with open(first, "rb") as handle:
        field_bytes = handle.read()
    with open(second, "rb") as handle:
        field_ok = handle.read() == field_bytes

    _, result, _ = desk_run
    with open(result.checkpoint_path, "rb") as handle:
        original = handle.read()
    ck = load_checkpoint(result.checkpoint_path)
    copy_path = str(tmp_path / "copy.fpck")
    save_checkpoint(copy_path, ck.iteration, ck.blocks, ck.config_text,
                    ck.rng_state)
    with open(copy_path, "rb") as handle:
        ck_ok = handle.read() == original

    acceptance("A10", field_ok and ck_ok,
               "field file (%d bytes) and checkpoint (%d bytes) round-trip "
               "byte-identically; bad magic and truncation raise FormatError"
               % (len(field_bytes), len(original)))
    assert field_ok, "field write -> read -> write changed bytes"
    assert ck_ok, "checkpoint read -> write changed bytes"

    from fieldprobe.field import read_field
    with pytest.raises(FormatError, match="magic"):
        read_field(b"XXXX" + field_bytes[4:])
    with pytest.raises(FormatError, match="truncated"):
        read_field(field_bytes[:-5])

    bad_ck = str(tmp_path / "bad.fpck")
    with open(bad_ck, "wb") as handle:
        handle.write(b"JUNK" + original[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad_ck)
    short_ck = str(tmp_path / "short.fpck")
    with open(short_ck, "wb") as handle:
        handle.write(original[:-9])
    with pytest.raises(FormatError, match="truncated|trailing|JSON"):
        load_checkpoint(short_ck)


# --------------------------------------------------------------------------
# supplementary: learned features separate the classes


def test_features_cluster_by_class(desk_run, workspace, tmp_path):
    _, result, _ = desk_run
    out = extract_features(result.checkpoint_path, workspace["test"],
                           str(tmp_path / "features.csv"),
                           cache_dir=workspace["cache"])
    labels, rows = [], []
    with open(out, "r", encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            parts = line.strip().split(",")
            labels.append(int(parts[1]))
            rows.append([float(v) for v in parts[2:]])
    feats = np.asarray(rows)
    feats /= np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), 1e-12)
    labels = np.asarray(labels)
    sim = feats @ feats.T
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(labels), dtype=bool)
    intra = float(sim[same & off_diag].mean())
    inter = float(sim[~same].mean())
    assert intra > inter, ("mean intra-class cosine %.3f does not exceed "
                           "inter-class %.3f" % (intra, inter))
