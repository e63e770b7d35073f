import dataclasses
import json
import os
import shutil
import struct
import sys
import threading

import numpy as np
import pytest

from fieldprobe import trainer
from fieldprobe.errors import FormatError, ParseError, TrainingDiverged
from fieldprobe.field import (
    ROLE_DISTANCE,
    ROLE_GENERIC,
    Field3D,
    load_field,
    save_field,
)
from fieldprobe.ingest import parse_perturbation_modes, voxelize, write_off
from fieldprobe.probing import FilterBank, ProbingLayer, init_filter_bank
from fieldprobe.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    make_shape,
    multilinear_field,
)
from fieldprobe.trainer import (
    Checkpoint,
    FieldCache,
    ShapeDataset,
    TrainConfig,
    build_field,
    build_model,
    evaluate_checkpoint,
    evaluate_network,
    extract_features,
    gradient_check_report,
    load_checkpoint,
    load_model_state,
    probing_displacement,
    sample_seed,
    save_checkpoint,
    train,
)


@pytest.fixture(scope="module")
def workbench(tmp_path_factory):
    """A tiny two-class dataset plus a shared field cache directory."""
    root = tmp_path_factory.mktemp("trainer")
    spec = SyntheticSpec(classes=("sphere", "box"), train_per_class=6,
                         test_per_class=3, jitter=0.3, seed=1)
    train_manifest, test_manifest = generate_synthetic(spec, str(root / "data"))
    return {"root": root, "train": train_manifest, "test": test_manifest,
            "cache": str(root / "cache")}


def mini_config(workbench, out_dir, **overrides):
    base = dict(train_manifest=workbench["train"],
                test_manifest=workbench["test"],
                cache_dir=workbench["cache"],
                out_dir=str(out_dir),
                batch_size=8, max_iterations=30,
                checkpoint_every=15, eval_every=15)
    base.update(overrides)
    return TrainConfig(**base)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_bytes(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def read_text(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def mini_run(workbench, tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_run")
    cfg = mini_config(workbench, out)
    return cfg, train(cfg)


class TestTrainConfig:
    def test_text_round_trip(self):
        cfg = TrainConfig(sigma=1.25, augmentation="R15+T01+S",
                          train_manifest="a.tsv", classes=5)
        assert TrainConfig.from_text(cfg.to_text()) == cfg

    def test_text_is_sorted_and_newline_terminated(self):
        text = TrainConfig().to_text()
        assert text.endswith("\n")
        keys = [line.split("=", 1)[0] for line in text.splitlines()]
        assert keys == sorted(keys)

    def test_desk_defaults(self):
        cfg = TrainConfig()
        assert cfg.architecture == "1-FC"
        assert cfg.resolution == 32
        assert cfg.init_config.filter_count == 64
        assert cfg.channel_count == 1
        assert cfg.max_iterations == 2000
        assert (cfg.learning_rate, cfg.momentum, cfg.weight_decay) == \
            (0.01, 0.9, 0.0005)

    def test_sigma_defaults_to_tenth_of_object_size(self):
        assert TrainConfig(resolution=32).effective_sigma == pytest.approx(2.8)
        assert TrainConfig(resolution=64).effective_sigma == pytest.approx(6.0)
        assert TrainConfig(sigma=1.5).effective_sigma == 1.5

    def test_unknown_key_has_line_number(self):
        with pytest.raises(ParseError, match="line 2: unknown key"):
            TrainConfig.from_text("seed=1\nwarp_speed=9\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate key"):
            TrainConfig.from_text("seed=1\nseed=2\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ParseError, match="bad value for batch_size"):
            TrainConfig.from_text("batch_size=plenty\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError, match="key=value"):
            TrainConfig.from_text("architecture\n")

    def test_bool_parsing_is_strict(self):
        assert TrainConfig.from_text("freeze_probing=true\n").freeze_probing
        with pytest.raises(ParseError, match="bad value for freeze_probing"):
            TrainConfig.from_text("freeze_probing=yes\n")

    @pytest.mark.parametrize("kwargs,hint", [
        (dict(architecture="2-FC"), "architecture"),
        (dict(channels="distance+colors"), "channels"),
        (dict(resolution=4), "resolution"),
        (dict(sigma=-1.0), "sigma"),
        (dict(dropout=1.0), "dropout"),
        (dict(classes=1), "classes"),
        (dict(checkpoint_every=-1), "checkpoint_every"),
        (dict(samples_per_area=0.0), "samples_per_area"),
        (dict(augmentation="R15+T03"), "unknown perturbation"),
        (dict(pipeline_workers=0), "pipeline_workers"),
        (dict(learning_rate=0), "learning_rate"),
        (dict(momentum=1.0), "momentum"),
        (dict(weight_decay=-1), "weight_decay"),
        (dict(batch_size=0), "batch_size"),
        (dict(batch_size=1), "batch_size"),
        (dict(max_iterations=-1), "max_iterations"),
    ])
    def test_validation(self, kwargs, hint):
        with pytest.raises(ValueError, match=hint):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("text,hint", [
        ("resolution=4\n", "resolution must be >= 8"),
        ("seed=1\npipeline_workers=0\n", "pipeline_workers must be >= 1"),
        ("momentum=1.0\n", "momentum must be in"),
        ("batch_size=1\n", "batch_size must be >= 2"),
    ])
    def test_range_error_in_text_is_parse_error(self, text, hint):
        # the same kind of error SyntheticSpec.from_text reports
        with pytest.raises(ParseError, match=hint):
            TrainConfig.from_text(text)

    def test_from_file_resolves_relative_paths(self, workbench, tmp_path):
        rel_train = os.path.relpath(workbench["train"], tmp_path)
        rel_test = os.path.relpath(workbench["test"], tmp_path)
        path = tmp_path / "run.cfg"
        path.write_text("train_manifest=%s\ntest_manifest=%s\nout_dir=run\n"
                        % (rel_train, rel_test))
        cfg = TrainConfig.from_file(str(path))
        assert cfg.train_manifest == workbench["train"]
        assert cfg.out_dir == str(tmp_path / "run")

    def test_from_file_requires_existing_manifest(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train_manifest=missing.tsv\n")
        with pytest.raises(FileNotFoundError, match="train_manifest"):
            TrainConfig.from_file(str(path))


class TestShapeDataset:
    def test_lengths_labels_and_ids(self, workbench):
        ds = ShapeDataset(workbench["train"], 32)
        assert len(ds) == 12
        assert ds.class_count == 2
        assert sorted({ds.label(i) for i in range(len(ds))}) == [0, 1]
        assert ds.id(0).startswith("shapes/")

    def test_shapes_come_normalized_and_memoized(self, workbench):
        ds = ShapeDataset(workbench["train"], 32)
        shape = ds.shape(0)
        assert shape.frame is not None and shape.frame.resolution == 32
        assert ds.shape(0) is shape

    def test_class_count_mismatch_rejected(self, workbench):
        with pytest.raises(ValueError, match="outside the 1 trained classes"):
            ShapeDataset(workbench["train"], 32, class_count=1)


class TestFieldCache:
    def test_build_field_channel_sets(self, workbench):
        ds = ShapeDataset(workbench["train"], 32)
        occ = voxelize(ds.shape(0), 32, seed=3)
        slim = build_field(occ, "distance")
        assert slim.values.shape == (1, 32, 32, 32)
        assert slim.values.dtype == np.float32
        assert slim.roles.tolist() == [ROLE_DISTANCE]
        full = build_field(occ, "distance+normals")
        assert full.values.shape == (4, 32, 32, 32)

    def test_memory_memoization(self, workbench):
        ds = ShapeDataset(workbench["train"], 32)
        cache = FieldCache(None, 32, "distance")
        assert cache.field_for(ds, 0) is cache.field_for(ds, 0)

    def test_disk_round_trip_bitwise(self, workbench, tmp_path):
        ds = ShapeDataset(workbench["train"], 32)
        first = FieldCache(str(tmp_path), 32, "distance")
        built = first.field_for(ds, 0)
        files = os.listdir(tmp_path)
        assert len(files) == 1 and files[0].endswith(".fpf")
        second = FieldCache(str(tmp_path), 32, "distance")
        loaded = second.field_for(ds, 0)
        np.testing.assert_array_equal(loaded.values, built.values)

    def test_truncated_entry_is_rebuilt(self, workbench, tmp_path):
        ds = ShapeDataset(workbench["train"], 32)
        cold = FieldCache(None, 32, "distance").field_for(ds, 0)
        FieldCache(str(tmp_path), 32, "distance").field_for(ds, 0)
        [name] = os.listdir(tmp_path)
        path = os.path.join(str(tmp_path), name)
        whole = read_bytes(path)
        with open(path, "r+b") as handle:
            handle.truncate(len(whole) // 2)
        rebuilt = FieldCache(str(tmp_path), 32, "distance").field_for(ds, 0)
        assert rebuilt.values.tobytes() == cold.values.tobytes()
        assert os.listdir(tmp_path) == [name]
        assert read_bytes(path) == whole

    def test_key_separates_resolutions(self, workbench, tmp_path):
        ds32 = ShapeDataset(workbench["train"], 32)
        ds16 = ShapeDataset(workbench["train"], 16)
        FieldCache(str(tmp_path), 32, "distance").field_for(ds32, 0)
        FieldCache(str(tmp_path), 16, "distance").field_for(ds16, 0)
        assert len(os.listdir(tmp_path)) == 2

    def test_key_separates_close_densities(self, workbench, tmp_path):
        # 8.0 and 8.000001 agree to six significant digits
        ds = ShapeDataset(workbench["train"], 16)
        for density in (8.0, 8.000001):
            FieldCache(str(tmp_path), 16, "distance",
                       density).field_for(ds, 0)
        assert len(os.listdir(tmp_path)) == 2

    @pytest.fixture
    def twin_manifests(self, tmp_path):
        """Two manifests in different directories that list the same
        relative path, x.off: a sphere under a/, a torus under b/. Each
        dataset's field built alone comes with it."""
        twins = []
        for folder, name in (("a", "sphere"), ("b", "torus")):
            root = tmp_path / folder
            root.mkdir()
            shape = make_shape(name, np.random.default_rng(0), 0.0)
            write_bytes(str(root / "x.off"), write_off(shape))
            (root / "m.tsv").write_text("x.off\t0\n")
            ds = ShapeDataset(str(root / "m.tsv"), 16)
            alone = FieldCache(None, 16, "distance").field_for(ds, 0)
            twins.append((ds, alone.values.tobytes()))
        assert twins[0][1] != twins[1][1]
        return twins

    def test_same_relative_path_from_memory(self, twin_manifests):
        shared = FieldCache(None, 16, "distance")
        for ds, alone in twin_manifests:
            assert shared.field_for(ds, 0).values.tobytes() == alone

    def test_same_relative_path_from_disk(self, twin_manifests, tmp_path):
        disk = str(tmp_path / "cache")
        for ds, _ in twin_manifests:
            FieldCache(disk, 16, "distance").field_for(ds, 0)
        assert len(os.listdir(disk)) == 2
        for ds, alone in twin_manifests:
            loaded = FieldCache(disk, 16, "distance").field_for(ds, 0)
            assert loaded.values.tobytes() == alone

    @pytest.fixture
    def one_file_two_ids(self, tmp_path):
        """One shape file listed as sub/x.off by a.tsv and as x.off by
        sub/b.tsv: one resolved path, two ids, so two voxelization seeds.
        Each dataset's field built alone comes with it."""
        (tmp_path / "sub").mkdir()
        shape = make_shape("torus", np.random.default_rng(0), 0.0)
        write_bytes(str(tmp_path / "sub" / "x.off"), write_off(shape))
        (tmp_path / "a.tsv").write_text("sub/x.off\t0\n")
        (tmp_path / "sub" / "b.tsv").write_text("x.off\t0\n")
        pair = []
        for manifest in ("a.tsv", "sub/b.tsv"):
            ds = ShapeDataset(str(tmp_path / manifest), 16)
            alone = FieldCache(None, 16, "distance").field_for(ds, 0)
            pair.append((ds, alone.values.tobytes()))
        assert pair[0][0].paths == pair[1][0].paths
        assert pair[0][1] != pair[1][1]
        return pair

    def test_same_file_two_ids_from_memory(self, one_file_two_ids):
        shared = FieldCache(None, 16, "distance")
        for ds, alone in one_file_two_ids:
            assert shared.field_for(ds, 0).values.tobytes() == alone

    def test_same_file_two_ids_from_disk(self, one_file_two_ids, tmp_path):
        disk = str(tmp_path / "cache")
        for ds, _ in one_file_two_ids:
            FieldCache(disk, 16, "distance").field_for(ds, 0)
        assert len(os.listdir(disk)) == 2
        for ds, alone in one_file_two_ids:
            loaded = FieldCache(disk, 16, "distance").field_for(ds, 0)
            assert loaded.values.tobytes() == alone

    def test_sample_seed_is_stable_and_distinct(self):
        assert sample_seed("a.off") == sample_seed("a.off")
        assert sample_seed("a.off") != sample_seed("b.off")


def refuse(*args, **kwargs):
    raise AssertionError("a view was built")


def no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was created")


def fresh_eval_view(ds, index, modes, resolution=16, channels="distance"):
    """A sample's evaluation view built from its draw, with no cache."""
    perturbation, vox_seed = trainer.eval_draw(modes,
                                               sample_seed(ds.id(index)))
    return trainer._build(FieldCache(None, resolution, channels),
                          ds.shape(index), perturbation, vox_seed)


class TestEvalViewCache:
    """Perturbed evaluation views are deterministic, so the cache keeps
    them on disk, keyed on the sample and the ordered protocol."""

    @pytest.fixture
    def ds(self, workbench):
        return ShapeDataset(workbench["test"], 16, class_count=2)

    def test_cached_view_is_a_fresh_build(self, ds, tmp_path,
                                          monkeypatch):
        modes = parse_perturbation_modes("R15+T01+S")
        built = FieldCache(str(tmp_path), 16, "distance").field_for(
            ds, 1, modes)
        [name] = os.listdir(tmp_path)
        assert name.endswith(".R15+T01+S.fpf")
        monkeypatch.setattr(trainer, "voxelize", refuse)
        loaded = FieldCache(str(tmp_path), 16, "distance").field_for(
            ds, 1, modes)
        monkeypatch.undo()
        fresh = fresh_eval_view(ds, 1, modes)
        assert built.values.tobytes() == fresh.values.tobytes()
        assert loaded.values.tobytes() == fresh.values.tobytes()
        assert loaded.roles.tolist() == fresh.roles.tolist()

    def test_protocols_and_mode_order_kept_apart(self, ds, tmp_path):
        protocols = ("R15", "R15+T01+S", "R15+S", "S+R15")
        for spec in protocols:
            FieldCache(str(tmp_path), 16, "distance").field_for(
                ds, 0, parse_perturbation_modes(spec))
        names = sorted(os.listdir(tmp_path))
        assert sorted(name.split(".", 1)[1] for name in names) == \
            sorted(spec + ".fpf" for spec in protocols)
        views = set()
        for spec in protocols:
            modes = parse_perturbation_modes(spec)
            loaded = FieldCache(str(tmp_path), 16, "distance").field_for(
                ds, 0, modes)
            assert loaded.values.tobytes() == \
                fresh_eval_view(ds, 0, modes).values.tobytes()
            views.add(loaded.values.tobytes())
        assert len(views) == len(protocols)

    def test_truncated_view_entry_is_rebuilt(self, ds, tmp_path):
        modes = parse_perturbation_modes("R15")
        FieldCache(str(tmp_path), 16, "distance").field_for(ds, 2, modes)
        [name] = os.listdir(tmp_path)
        path = os.path.join(str(tmp_path), name)
        whole = read_bytes(path)
        write_bytes(path, whole[:len(whole) // 2])
        rebuilt = FieldCache(str(tmp_path), 16, "distance").field_for(
            ds, 2, modes)
        assert rebuilt.values.tobytes() == \
            fresh_eval_view(ds, 2, modes).values.tobytes()
        assert os.listdir(tmp_path) == [name]
        assert read_bytes(path) == whole

    def test_views_stay_out_of_memory(self, ds, tmp_path):
        cache = FieldCache(str(tmp_path), 16, "distance")
        modes = parse_perturbation_modes("R15")
        assert cache.field_for(ds, 0, modes) is not \
            cache.field_for(ds, 0, modes)

    def test_unwritable_cache_still_scores(self, ds, tmp_path, monkeypatch):
        def no_room(field, path):
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(trainer, "save_field", no_room)
        modes = parse_perturbation_modes("R15")
        cache = FieldCache(str(tmp_path), 16, "distance")
        assert cache.field_for(ds, 0, modes).values.tobytes() == \
            fresh_eval_view(ds, 0, modes).values.tobytes()
        assert os.listdir(tmp_path) == []
        # a training field still fails loudly, as before
        with pytest.raises(OSError, match="No space"):
            cache.field_for(ds, 0)

    def test_unperturbed_eval_makes_no_protocol_entry(self, workbench,
                                                      mini_run, tmp_path):
        cfg, result = mini_run
        ds = ShapeDataset(workbench["test"], cfg.resolution, class_count=2)
        cache = FieldCache(str(tmp_path), cfg.resolution, cfg.channels)
        evaluate_network(result.net, ds, cache, result.config)
        expected = {os.path.basename(cache._path(
            (ds.paths[i], sample_seed(ds.id(i))), ())) for i in range(len(ds))}
        assert set(os.listdir(tmp_path)) == expected
        assert all(name.count(".") == 1 for name in expected)


def small_block(resolution=8, filters=3, points=4, channels=2, sigma=1.5,
                seed=0, frozen=False):
    rng = np.random.default_rng(seed)
    bank = FilterBank(rng.uniform(0.5, resolution - 1.5,
                                  size=(filters, points, 3)),
                      rng.standard_normal((filters, points, channels)),
                      resolution)
    return bank, ProbingLayer(bank, sigma, frozen=frozen)


def random_fields(count, resolution=8, channels=2, seed=1):
    rng = np.random.default_rng(seed)
    roles = [ROLE_DISTANCE] + [ROLE_GENERIC] * (channels - 1)
    return [multilinear_field(rng, resolution, roles)[0]
            for _ in range(count)]


class TestProbingBlock:
    """The probing layer as the trainer's networks run it: one batch at a
    time, equal to the same samples run one by one."""

    def test_forward_matches_single_sample_pipeline(self):
        bank, block = small_block()
        fields = random_fields(5)
        for train in (False, True):
            out = block.forward(fields, train=train)
            assert out.shape == (5, bank.filter_count)
            for row, field in enumerate(fields):
                np.testing.assert_array_equal(
                    out[row], block.forward([field], train=train)[0])

    def test_backward_accumulates_like_per_sample_pipelines(self):
        bank, block = small_block()
        fields = random_fields(4)
        upstream = np.random.default_rng(5).standard_normal((4, 3))
        block.forward(fields, train=True)
        block.backward(upstream)
        got_loc = block.locations.grad.copy()
        got_w = block.weights.grad.copy()

        ref_bank, ref_block = small_block()
        for row, field in enumerate(fields):
            ref_block.forward([field], train=True)
            ref_block.backward(upstream[row:row + 1])
        np.testing.assert_allclose(got_loc, ref_block.locations.grad,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(got_w, ref_block.weights.grad,
                                   rtol=1e-12, atol=0)

    def test_backward_requires_training_forward(self):
        bank, block = small_block()
        with pytest.raises(RuntimeError, match="without a training forward"):
            block.backward(np.zeros((1, 3)))
        block.forward(random_fields(1), train=False)
        with pytest.raises(RuntimeError, match="without a training forward"):
            block.backward(np.zeros((1, 3)))

    def test_upstream_shape_checked(self):
        bank, block = small_block()
        block.forward(random_fields(2), train=True)
        with pytest.raises(ValueError, match="upstream"):
            block.backward(np.zeros((3, 3)))

    def test_frozen_block_exposes_state_not_params(self):
        bank, block = small_block(frozen=True)
        assert block.params() == []
        state = block.state()
        assert set(state) == {"probing.locations", "probing.weights"}
        assert state["probing.locations"] is bank.locations
        out = block.forward(random_fields(2), train=True)
        assert block.backward(np.zeros_like(out)) is None
        assert np.all(block.locations.grad == 0)

    def test_sigma_validated(self):
        bank, _ = small_block()
        with pytest.raises(ValueError, match="sigma"):
            ProbingLayer(bank, 0.0)


class TestBuildModel:
    def test_one_fc_layout(self):
        cfg = TrainConfig(classes=5)
        net, bank, probing = build_model(cfg)
        assert [layer.name for layer in net.layers] == \
            ["probing", "bn_in", "relu_in", "fc_out"]
        assert net.layers[-1].weight.shape == (5, 64)
        assert bank.locations.dtype == np.float32

    def test_four_fc_layout(self):
        cfg = TrainConfig(architecture="4-FCs", classes=3, dropout=0.25)
        net, bank, probing = build_model(cfg)
        names = [layer.name for layer in net.layers]
        assert names == ["probing", "bn_in", "relu_in",
                         "fc1", "bn1", "relu1", "drop1",
                         "fc2", "bn2", "relu2", "drop2",
                         "fc3", "bn3", "relu3", "drop3",
                         "fc_out"]
        assert net.layers[3].weight.shape == (1024, 64)
        assert net.layers[7].weight.shape == (1024, 1024)
        assert net.layers[-1].weight.shape == (3, 1024)
        assert net.layers[6].rate == 0.25

    def test_parameter_count(self):
        cfg = TrainConfig(classes=5)
        net, bank, probing = build_model(cfg)
        total = sum(p.values.size for p in net.params())
        c, n = 64, 8
        expected = c * n * 3 + c * n * 1 + 2 * c + 5 * c + 5
        assert total == expected

    def test_requires_resolved_classes(self):
        with pytest.raises(ValueError, match="classes"):
            build_model(TrainConfig())


@pytest.mark.parametrize("kind", ["field", "checkpoint"])
def test_concurrent_writers_of_one_path(tmp_path, kind):
    """Writers of one entry race each round while a reader loads it: no
    write fails, and every load sees one writer's payload whole."""
    rng = np.random.default_rng(0)
    payloads = [rng.standard_normal((4, 24, 24, 24)).astype(np.float32)
                for _ in range(4)]
    path = str(tmp_path / ("entry." + kind))

    def write(values):
        if kind == "field":
            save_field(Field3D(values, np.full(4, ROLE_GENERIC, np.uint8)),
                       path)
        else:
            save_checkpoint(path, 1, {"v": values.reshape(4, 24, 576)}, "",
                            {})

    def read():
        if kind == "field":
            return load_field(path).values.tobytes()
        return load_checkpoint(path).blocks["v"].tobytes()

    whole = {values.tobytes() for values in payloads}
    errors, done = [], threading.Event()
    barrier = threading.Barrier(len(payloads))

    def writer(values):
        try:
            for _ in range(20):
                barrier.wait(timeout=60)
                write(values)
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()

    def reader():
        while not done.is_set():
            try:
                if read() not in whole:
                    errors.append(AssertionError("a foreign payload"))
            except BaseException as exc:
                errors.append(exc)

    write(payloads[0])
    threads = [threading.Thread(target=writer, args=(values,))
               for values in payloads]
    watcher = threading.Thread(target=reader)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        done.set()
        watcher.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [watcher])
    assert errors == []
    assert read() in whole
    assert os.listdir(tmp_path) == [os.path.basename(path)]


class TestCheckpointFormat:
    def blocks(self):
        return {"a.w": np.array([[1.5, -2.0]], dtype=np.float32),
                "b.v": np.arange(3, dtype=np.float32)}

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "x.fpck")
        state = np.random.default_rng(0).bit_generator.state
        save_checkpoint(path, 41, self.blocks(), "seed=1\n", state)
        ck = load_checkpoint(path)
        assert ck.iteration == 41
        assert ck.config_text == "seed=1\n"
        assert ck.rng_state == state
        assert set(ck.blocks) == {"a.w", "b.v"}
        np.testing.assert_array_equal(ck.blocks["a.w"], self.blocks()["a.w"])
        assert ck.blocks["b.v"].dtype == np.float32

    def test_save_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.fpck"), str(tmp_path / "b.fpck")
        state = {"bit_generator": "PCG64", "state": {"state": 7, "inc": 9},
                 "has_uint32": 0, "uinteger": 0}
        save_checkpoint(a, 1, self.blocks(), "x=1\n", state)
        save_checkpoint(b, 1, self.blocks(), "x=1\n", state)
        assert read_bytes(a) == read_bytes(b)

    def test_byte_layout(self, tmp_path):
        path = str(tmp_path / "x.fpck")
        save_checkpoint(path, 7, {"a": np.array([1.0, 2.0], np.float32)},
                        "k=v\n", {"s": 3})
        blob = read_bytes(path)
        assert blob[:4] == b"FPCK"
        version, iteration, count = struct.unpack_from("<IQI", blob, 4)
        assert (version, iteration, count) == (1, 7, 1)
        name_len = struct.unpack_from("<I", blob, 20)[0]
        assert name_len == 1 and blob[24:25] == b"a"
        rank = struct.unpack_from("<I", blob, 25)[0]
        dim = struct.unpack_from("<I", blob, 29)[0]
        assert (rank, dim) == (1, 2)
        values = np.frombuffer(blob, dtype="<f4", count=2, offset=33)
        np.testing.assert_array_equal(values, [1.0, 2.0])
        trailer_len = struct.unpack_from("<I", blob, 41)[0]
        trailer = json.loads(blob[45:45 + trailer_len])
        assert trailer == {"config": "k=v\n", "rng": {"s": 3}}
        assert 45 + trailer_len == len(blob)

    def test_save_rejects_wrong_dtype_and_rank(self, tmp_path):
        path = str(tmp_path / "x.fpck")
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(path, 0, {"a": np.zeros(2)}, "", {})
        with pytest.raises(ValueError, match="rank"):
            save_checkpoint(path, 0,
                            {"a": np.zeros((1, 1, 1, 1), np.float32)}, "", {})

    def corrupt(self, tmp_path, mutate):
        path = str(tmp_path / "x.fpck")
        save_checkpoint(path, 7, {"a": np.array([1.0, 2.0], np.float32)},
                        "k=v\n", {"s": 3})
        blob = bytearray(read_bytes(path))
        blob = mutate(blob)
        bad = str(tmp_path / "bad.fpck")
        write_bytes(bad, bytes(blob))
        return bad

    def test_load_rejects_bad_magic(self, tmp_path):
        bad = self.corrupt(tmp_path, lambda b: b"JUNK" + b[4:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(bad)

    def test_load_rejects_bad_version(self, tmp_path):
        def mutate(blob):
            struct.pack_into("<I", blob, 4, 9)
            return blob
        with pytest.raises(FormatError, match="version 9"):
            load_checkpoint(self.corrupt(tmp_path, mutate))

    def test_load_rejects_truncation(self, tmp_path):
        bad = self.corrupt(tmp_path, lambda b: b[:-6])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(bad)

    def test_load_rejects_trailing_bytes(self, tmp_path):
        bad = self.corrupt(tmp_path, lambda b: b + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(bad)

    def test_load_rejects_bad_rank(self, tmp_path):
        def mutate(blob):
            struct.pack_into("<I", blob, 25, 7)
            return blob
        with pytest.raises(FormatError, match="rank"):
            load_checkpoint(self.corrupt(tmp_path, mutate))

    def test_load_rejects_bad_metadata(self, tmp_path):
        def mutate(blob):
            # overwrite the start of the JSON trailer
            blob[45:47] = b"!!"
            return blob
        with pytest.raises(FormatError, match="JSON"):
            load_checkpoint(self.corrupt(tmp_path, mutate))


class TestTrainLoop:
    def test_mini_run_outputs(self, mini_run):
        cfg, result = mini_run
        assert result.test_accuracy >= 0.9
        assert os.path.exists(result.checkpoint_path)
        assert result.confusion.sum() == 6
        assert result.displacement > 0.0
        with open(result.metrics_path) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "iteration,loss,train_acc,eval_acc,wall_ms"
        assert len(lines) == 1 + 30
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == ""
        at_eval = lines[15].split(",")
        assert at_eval[0] == "15" and float(at_eval[3]) <= 1.0

    def test_checkpoint_echo_is_resolved_config(self, mini_run):
        cfg, result = mini_run
        ck = load_checkpoint(result.checkpoint_path)
        echoed = TrainConfig.from_text(ck.config_text)
        assert echoed.classes == 2
        assert echoed.seed == cfg.seed
        keys = [line.split("=", 1)[0] for line in ck.config_text.splitlines()]
        for key in ("train_manifest", "test_manifest", "cache_dir",
                    "out_dir"):
            assert key not in keys
        assert "pipeline_workers" in keys
        assert ck.iteration == 30

    def test_rerun_is_bitwise_identical(self, workbench, tmp_path):
        cfg = mini_config(workbench, tmp_path / "run", max_iterations=20,
                          checkpoint_every=10, eval_every=0)
        train(cfg)
        first = read_bytes(os.path.join(cfg.out_dir, "ckpt_000020.fpck"))
        shutil.rmtree(cfg.out_dir)
        train(cfg)
        again = read_bytes(os.path.join(cfg.out_dir, "ckpt_000020.fpck"))
        assert first == again

    def test_resume_reproduces_uninterrupted_run(self, workbench, tmp_path):
        cfg = mini_config(workbench, tmp_path / "run", max_iterations=20,
                          checkpoint_every=10, eval_every=0,
                          augmentation="R15+T01+S")
        train(cfg)
        full = read_bytes(os.path.join(cfg.out_dir, "ckpt_000020.fpck"))
        mid = read_bytes(os.path.join(cfg.out_dir, "ckpt_000010.fpck"))
        shutil.rmtree(cfg.out_dir)
        os.makedirs(cfg.out_dir)
        midpath = str(tmp_path / "mid.fpck")
        write_bytes(midpath, mid)
        train(cfg, resume=midpath)
        resumed = read_bytes(os.path.join(cfg.out_dir, "ckpt_000020.fpck"))
        assert resumed == full

    def test_resume_keeps_one_metrics_row_per_iteration(self, workbench,
                                                        tmp_path):
        cfg = mini_config(workbench, tmp_path / "run", max_iterations=30,
                          checkpoint_every=10, eval_every=0)
        train(cfg)
        train(cfg, resume=os.path.join(cfg.out_dir, "ckpt_000010.fpck"))
        with open(os.path.join(cfg.out_dir, "metrics.csv")) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "iteration,loss,train_acc,eval_acc,wall_ms"
        assert [int(line.split(",")[0]) for line in lines[1:]] == \
            list(range(1, 31))

    @pytest.mark.parametrize("left", [b"", b"iteration,loss,tr"],
                             ids=["empty", "torn-header"])
    def test_resume_rewrites_metrics_without_header(self, workbench,
                                                     tmp_path, left):
        # a run killed after opening metrics.csv but before its header
        # was whole leaves one of these behind
        cfg = mini_config(workbench, tmp_path / "run", max_iterations=4,
                          checkpoint_every=2, eval_every=0)
        train(cfg)
        metrics = os.path.join(cfg.out_dir, "metrics.csv")
        write_bytes(metrics, left)
        train(cfg, resume=os.path.join(cfg.out_dir, "ckpt_000002.fpck"))
        lines = read_text(metrics).splitlines()
        assert lines[0] == "iteration,loss,train_acc,eval_acc,wall_ms"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [3, 4]

    def test_checkpoints_do_not_depend_on_run_directory(self, workbench,
                                                       tmp_path):
        data = os.path.dirname(workbench["train"])
        copied = str(tmp_path / "elsewhere" / "data")
        shutil.copytree(data, copied)
        first = mini_config(workbench, tmp_path / "a" / "run",
                            cache_dir=str(tmp_path / "a" / "cache"),
                            max_iterations=20, checkpoint_every=10,
                            eval_every=0)
        second = dataclasses.replace(
            first,
            train_manifest=os.path.join(copied, "train.tsv"),
            test_manifest=os.path.join(copied, "test.tsv"),
            cache_dir=str(tmp_path / "b" / "cache"),
            out_dir=str(tmp_path / "b" / "run"))
        final = read_bytes(train(first).checkpoint_path)
        assert read_bytes(train(second).checkpoint_path) == final

        # a moved run directory resumes to the same bytes
        moved = str(tmp_path / "moved")
        shutil.move(first.out_dir, moved)
        os.remove(os.path.join(moved, "final.fpck"))
        resumed = train(dataclasses.replace(first, out_dir=moved),
                        resume=os.path.join(moved, "ckpt_000010.fpck"))
        assert read_bytes(resumed.checkpoint_path) == final

        # a checkpoint whose config text still holds the paths resumes too
        mid = load_checkpoint(os.path.join(moved, "ckpt_000010.fpck"))
        pathful = str(tmp_path / "pathful.fpck")
        resolved = dataclasses.replace(first, classes=2).to_text()
        save_checkpoint(pathful, mid.iteration, mid.blocks, resolved,
                        mid.rng_state)
        resumed = train(dataclasses.replace(first, out_dir=moved),
                        resume=pathful)
        assert read_bytes(resumed.checkpoint_path) == final

    def test_worker_count_does_not_change_results(self, workbench, tmp_path):
        # Randomness is drawn on the main thread before jobs are handed to
        # the pool, so the parallel pipeline must reproduce the serial run
        # block for block. Only the config echo may differ.
        runs = {}
        for workers in (1, 2):
            cfg = mini_config(workbench, tmp_path / ("w%d" % workers),
                              max_iterations=15, checkpoint_every=0,
                              eval_every=0, augmentation="R15+T01+S",
                              pipeline_workers=workers)
            runs[workers] = load_checkpoint(train(cfg).checkpoint_path)
        serial, parallel = runs[1], runs[2]
        assert serial.iteration == parallel.iteration
        assert sorted(serial.blocks) == sorted(parallel.blocks)
        for name, block in serial.blocks.items():
            assert block.tobytes() == parallel.blocks[name].tobytes(), name
        assert serial.rng_state == parallel.rng_state
        assert serial.config_text != parallel.config_text

    def test_only_augmented_batches_use_the_pool(self, workbench, tmp_path,
                                                 monkeypatch):
        # an unaugmented batch only reads the cache, so it reads on the
        # calling thread whatever the worker count, to the same bytes
        def run(name, **overrides):
            cfg = mini_config(workbench, tmp_path / name, max_iterations=15,
                              checkpoint_every=0, eval_every=0, **overrides)
            return load_checkpoint(train(cfg).checkpoint_path)

        serial = run("w1")
        monkeypatch.setattr(trainer, "ThreadPoolExecutor", no_pool)
        wide = run("w2", pipeline_workers=2)
        assert wide.config_text == serial.config_text.replace(
            "pipeline_workers=1", "pipeline_workers=2")
        assert sorted(wide.blocks) == sorted(serial.blocks)
        for name, block in serial.blocks.items():
            assert block.tobytes() == wide.blocks[name].tobytes(), name
        assert wide.rng_state == serial.rng_state
        # the stub is the executor an augmented batch reaches for
        with pytest.raises(AssertionError, match="thread pool"):
            run("augmented", augmentation="R15", pipeline_workers=2)

    def test_resume_allows_worker_count_change(self, workbench, tmp_path):
        cfg = mini_config(workbench, tmp_path / "run", max_iterations=20,
                          checkpoint_every=10, eval_every=0)
        train(cfg)
        full = load_checkpoint(
            os.path.join(cfg.out_dir, "ckpt_000020.fpck"))
        mid = read_bytes(os.path.join(cfg.out_dir, "ckpt_000010.fpck"))
        shutil.rmtree(cfg.out_dir)
        midpath = str(tmp_path / "mid.fpck")
        write_bytes(midpath, mid)
        wide = dataclasses.replace(cfg, pipeline_workers=3)
        resumed = load_checkpoint(train(wide, resume=midpath).checkpoint_path)
        for name, block in full.blocks.items():
            assert block.tobytes() == resumed.blocks[name].tobytes(), name

    def test_resume_rejects_config_mismatch(self, workbench, mini_run,
                                            tmp_path):
        cfg, result = mini_run
        other = dataclasses.replace(cfg, learning_rate=0.02,
                                    out_dir=str(tmp_path / "other"))
        with pytest.raises(ValueError, match="does not match"):
            train(other, resume=result.checkpoint_path)

    def test_divergence_saves_diagnostic_checkpoint(self, workbench,
                                                    tmp_path):
        cfg = mini_config(workbench, tmp_path / "boom", max_iterations=50,
                          learning_rate=1e6, eval_every=0,
                          checkpoint_every=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match="non-finite") as info:
                train(cfg)
        path = info.value.checkpoint_path
        assert os.path.exists(path)
        assert load_checkpoint(path).iteration >= 1

    def test_frozen_probing_never_moves(self, workbench, tmp_path):
        cfg = mini_config(workbench, tmp_path / "frozen", max_iterations=15,
                          eval_every=0, checkpoint_every=0,
                          freeze_probing=True)
        result = train(cfg)
        assert result.displacement == 0.0
        ck = load_checkpoint(result.checkpoint_path)
        assert "probing.locations" in ck.blocks
        assert "velocity.probing.locations" not in ck.blocks
        assert "velocity.fc_out.weight" in ck.blocks

    def test_resume_and_donor_are_exclusive(self, workbench, tmp_path):
        cfg = mini_config(workbench, tmp_path / "x")
        with pytest.raises(ValueError, match="mutually exclusive"):
            train(cfg, resume="a.fpck", donor="b.fpck")

    def test_train_requires_manifest(self, workbench, tmp_path):
        cfg = TrainConfig(out_dir=str(tmp_path / "r"))
        with pytest.raises(ValueError, match="train_manifest"):
            train(cfg)


class RecordingNetwork:
    """Forwards to a network, keeping the bytes of every view it is given
    and every logits row it returns."""

    def __init__(self, net):
        self.net = net
        self.views, self.logits = [], []

    def forward(self, fields, train):
        self.views += [field.values.tobytes() for field in fields]
        logits = self.net.forward(fields, train=train)
        self.logits.append(logits.copy())
        return logits


class TestEvaluation:
    def test_confusion_matches_accuracy(self, workbench, mini_run):
        cfg, result = mini_run
        ds = ShapeDataset(workbench["test"], cfg.resolution, class_count=2)
        cache = FieldCache(workbench["cache"], cfg.resolution, cfg.channels)
        res = evaluate_network(result.net, ds, cache, result.config)
        assert res.confusion.sum() == len(ds)
        assert res.accuracy == pytest.approx(
            np.trace(res.confusion) / len(ds))

    def test_perturbed_eval_is_deterministic(self, workbench, mini_run):
        # no cache directory, so both passes build their views
        cfg, result = mini_run
        ds = ShapeDataset(workbench["test"], cfg.resolution, class_count=2)
        cache = FieldCache(None, cfg.resolution, cfg.channels)
        modes = parse_perturbation_modes("R15+T01+S")
        one = evaluate_network(result.net, ds, cache, result.config,
                               perturb=modes)
        two = evaluate_network(result.net, ds, cache, result.config,
                               perturb=modes)
        assert one.accuracy == two.accuracy
        np.testing.assert_array_equal(one.confusion, two.confusion)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_perturbed_eval_independent_of_worker_count(
            self, workbench, mini_run, tmp_path, on_disk):
        # chunks of 2 over 6 samples, so views are built across chunks; 5
        # workers and a short switch interval shuffle the build order. Each
        # worker count builds its views, with no cache directory or into a
        # fresh one, which a second pass at that worker count then loads
        cfg, result = mini_run
        ds = ShapeDataset(workbench["test"], cfg.resolution, class_count=2)
        modes = parse_perturbation_modes("R15+T01+S")
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 5):
                cache_dir = str(tmp_path / str(workers)) if on_disk else None
                for _ in range(2 if on_disk else 1):
                    cache = FieldCache(cache_dir, cfg.resolution,
                                       cfg.channels)
                    net = RecordingNetwork(result.net)
                    res = evaluate_network(
                        net, ds, cache,
                        dataclasses.replace(result.config,
                                            pipeline_workers=workers),
                        perturb=modes, chunk=2)
                    seen.append((net.views,
                                 [a.tobytes() for a in net.logits],
                                 res.accuracy, res.confusion.tolist()))
                if on_disk:
                    assert len(os.listdir(cache_dir)) == len(ds)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == (6 if on_disk else 3)
        assert len(seen[0][0]) == len(ds)
        assert all(pass_ == seen[0] for pass_ in seen)

    def test_cached_eval_builds_no_pool(self, workbench, mini_run, tmp_path,
                                        monkeypatch):
        # unperturbed fields, and perturbed views once a first pass has
        # written them, are only loaded: no pool, even with one entry
        # truncated, which the pass rebuilds inline. Views go to a fresh
        # directory, so no other test's entries make the first pass warm
        cfg, result = mini_run
        ds = ShapeDataset(workbench["test"], cfg.resolution, class_count=2)
        wide = dataclasses.replace(result.config, pipeline_workers=2)
        modes = parse_perturbation_modes("R15")

        def passes(views_dir):
            plain = FieldCache(workbench["cache"], cfg.resolution,
                               cfg.channels)
            views = FieldCache(str(tmp_path / views_dir), cfg.resolution,
                               cfg.channels)
            return [evaluate_network(result.net, ds, plain, wide),
                    evaluate_network(result.net, ds, views, wide,
                                     perturb=modes)]

        expected = passes("views")
        entry = FieldCache(str(tmp_path / "views"), cfg.resolution,
                           cfg.channels)._path(
            (ds.paths[4], sample_seed(ds.id(4))), modes)
        whole = read_bytes(entry)
        write_bytes(entry, whole[:len(whole) // 2])
        monkeypatch.setattr(trainer, "ThreadPoolExecutor", no_pool)
        for res, want in zip(passes("views"), expected):
            assert res.accuracy == want.accuracy
            np.testing.assert_array_equal(res.confusion, want.confusion)
        assert read_bytes(entry) == whole
        # the stub is the executor a pass that builds views reaches for
        with pytest.raises(AssertionError, match="thread pool"):
            passes("cold")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_inline_and_pooled_passes_agree(self, workbench, mini_run,
                                            tmp_path, monkeypatch, workers):
        # chunks of 4 over 6 samples, and the broken entry is sample 2, in
        # the middle of the first chunk. A pass decides once: one with the
        # entry missing runs wholly on the pool, and one with the entry
        # truncated runs on the calling thread, which rebuilds it there
        cfg, result = mini_run
        ds = ShapeDataset(workbench["test"], cfg.resolution, class_count=2)
        modes = parse_perturbation_modes("R15+T01+S")
        wide = dataclasses.replace(result.config, pipeline_workers=workers)
        executor, pools = trainer.ThreadPoolExecutor, []

        def counted(*args, **kwargs):
            pools.append(1)
            return executor(*args, **kwargs)

        monkeypatch.setattr(trainer, "ThreadPoolExecutor", counted)

        def score(cache_dir):
            del pools[:]
            net = RecordingNetwork(result.net)
            res = evaluate_network(
                net, ds, FieldCache(cache_dir, cfg.resolution, cfg.channels),
                wide, perturb=modes, chunk=4)
            return ((net.views, [a.tobytes() for a in net.logits],
                     res.accuracy, res.confusion.tolist()), len(pools))

        cache_dir = str(tmp_path)
        uncached, _ = score(None)
        cold = score(cache_dir)
        entry = FieldCache(cache_dir, cfg.resolution, cfg.channels)._path(
            (ds.paths[2], sample_seed(ds.id(2))), modes)
        whole = read_bytes(entry)
        warm = score(cache_dir)
        os.remove(entry)
        missing = score(cache_dir)
        assert read_bytes(entry) == whole
        write_bytes(entry, whole[:len(whole) // 2])
        truncated = score(cache_dir)
        assert read_bytes(entry) == whole
        passes = [cold, warm, missing, truncated]
        assert all(seen == uncached for seen, _ in passes)
        assert len(uncached[0]) == len(ds)
        assert [count for _, count in passes] == \
            ([1, 0, 1, 0] if workers > 1 else [0, 0, 0, 0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_perturbed_passes_agree_with_and_without_cache(
            self, workbench, mini_run, tmp_path, monkeypatch, workers):
        cfg, result = mini_run
        ck = load_checkpoint(result.checkpoint_path)
        path = str(tmp_path / "model.fpck")
        text = ck.config_text.replace("pipeline_workers=1",
                                      "pipeline_workers=%d" % workers)
        assert "pipeline_workers=%d" % workers in text
        save_checkpoint(path, ck.iteration, ck.blocks, text, ck.rng_state)
        cache_dir = str(tmp_path / "cache")

        def score(**kwargs):
            res = evaluate_checkpoint(path, workbench["test"],
                                      perturb="R15+T01+S", **kwargs)
            return res.accuracy, res.confusion.tolist()

        uncached = score()
        assert not os.path.exists(cache_dir)
        first = score(cache_dir=cache_dir)
        assert len(os.listdir(cache_dir)) == 6
        # a later pass only loads: no voxelization, no shape parsing
        monkeypatch.setattr(trainer, "voxelize", refuse)
        monkeypatch.setattr(ShapeDataset, "shape", refuse)
        later = score(cache_dir=cache_dir)
        assert first == later == uncached

    def test_evaluate_checkpoint_round_trip(self, workbench, mini_run):
        cfg, result = mini_run
        res = evaluate_checkpoint(result.checkpoint_path, workbench["test"])
        assert res.accuracy == pytest.approx(result.test_accuracy)

    def test_evaluate_checkpoint_rejects_extra_classes(self, workbench,
                                                       mini_run, tmp_path):
        cfg, result = mini_run
        spec = SyntheticSpec(classes=("sphere", "box", "torus"),
                             train_per_class=1, test_per_class=1, seed=3)
        _, manifest = generate_synthetic(spec, str(tmp_path / "wide"))
        with pytest.raises(ValueError, match="outside the 2 trained classes"):
            evaluate_checkpoint(result.checkpoint_path, manifest)


class TestFeatureExport:
    def test_csv_layout_and_determinism(self, workbench, mini_run, tmp_path):
        cfg, result = mini_run
        out = str(tmp_path / "features.csv")
        extract_features(result.checkpoint_path, workbench["test"], out,
                         cache_dir=workbench["cache"])
        lines = read_text(out).splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["id", "label"]
        assert len(header) == 2 + 64
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0].startswith("shapes/") and first[1] in {"0", "1"}
        again = str(tmp_path / "again.csv")
        extract_features(result.checkpoint_path, workbench["test"], again,
                         cache_dir=workbench["cache"])
        assert read_text(out) == read_text(again)

    def test_features_are_final_fc_input(self, workbench, mini_run, tmp_path):
        cfg, result = mini_run
        out = str(tmp_path / "features.csv")
        extract_features(result.checkpoint_path, workbench["test"], out,
                         cache_dir=workbench["cache"])
        row = read_text(out).splitlines()[1].split(",")
        feats = np.array([float(v) for v in row[2:]])
        ds = ShapeDataset(workbench["test"], cfg.resolution, class_count=2)
        cache = FieldCache(workbench["cache"], cfg.resolution, cfg.channels)
        x = [cache.field_for(ds, 0)]
        for layer in result.net.layers[:-1]:
            x = layer.forward(x, train=False)
        np.testing.assert_allclose(feats, x[0], rtol=1e-6, atol=1e-9)


@pytest.fixture(scope="module")
def second_task(tmp_path_factory):
    root = tmp_path_factory.mktemp("task2")
    spec = SyntheticSpec(classes=("torus", "cylinder"), train_per_class=6,
                         test_per_class=3, jitter=0.3, seed=2)
    return generate_synthetic(spec, str(root / "data")) + (str(root),)


class TestFineTune:
    def test_head_only_transfer_keeps_probing(self, workbench, mini_run,
                                              second_task):
        cfg, donor = mini_run
        tr2, te2, root = second_task
        ft_cfg = TrainConfig(train_manifest=tr2, test_manifest=te2,
                             batch_size=8, max_iterations=20,
                             checkpoint_every=0, eval_every=0,
                             cache_dir=os.path.join(root, "cache"),
                             out_dir=os.path.join(root, "ft"))
        result = train(dataclasses.replace(ft_cfg, freeze_probing=True),
                       donor=donor.checkpoint_path)
        source = load_checkpoint(donor.checkpoint_path)
        tuned = load_checkpoint(result.checkpoint_path)
        np.testing.assert_array_equal(tuned.blocks["probing.locations"],
                                      source.blocks["probing.locations"])
        np.testing.assert_array_equal(tuned.blocks["probing.weights"],
                                      source.blocks["probing.weights"])
        assert not np.array_equal(tuned.blocks["fc_out.weight"],
                                  source.blocks["fc_out.weight"])
        # travel is measured from the donor's bank, which never moved
        assert result.displacement == 0.0

    def test_full_fine_tune_moves_probing(self, workbench, mini_run,
                                          second_task):
        cfg, donor = mini_run
        tr2, te2, root = second_task
        ft_cfg = TrainConfig(train_manifest=tr2, test_manifest=te2,
                             batch_size=8, max_iterations=20,
                             checkpoint_every=0, eval_every=0,
                             cache_dir=os.path.join(root, "cache"),
                             out_dir=os.path.join(root, "ft_full"))
        result = train(ft_cfg, donor=donor.checkpoint_path)
        source = load_checkpoint(donor.checkpoint_path)
        tuned = load_checkpoint(result.checkpoint_path)
        assert not np.array_equal(tuned.blocks["probing.locations"],
                                  source.blocks["probing.locations"])
        assert result.displacement == probing_displacement(
            source.blocks["probing.locations"], result.bank)

    def test_donor_geometry_mismatch_rejected(self, mini_run, workbench,
                                              tmp_path):
        cfg, donor = mini_run
        other = mini_config(workbench, tmp_path / "y", filters_per_cell=2)
        with pytest.raises(ValueError, match="filters_per_cell"):
            train(other, donor=donor.checkpoint_path)

    def test_donor_without_probing_blocks_rejected(self, workbench,
                                                   tmp_path):
        path = str(tmp_path / "slim.fpck")
        cfg = mini_config(workbench, tmp_path / "z")
        save_checkpoint(path, 1, {"fc_out.bias": np.zeros(2, np.float32)},
                        cfg.to_text(), {"s": 1})
        with pytest.raises(ValueError, match="lacks block"):
            train(cfg, donor=path)


class TestModelStateLoading:
    def test_shape_mismatch_rejected(self, mini_run):
        cfg, result = mini_run
        ck = load_checkpoint(result.checkpoint_path)
        wrong = dataclasses.replace(result.config, classes=3)
        net, _, _ = build_model(wrong)
        with pytest.raises(ValueError, match="shape"):
            load_model_state(net, ck)

    def test_unknown_block_rejected(self, mini_run):
        cfg, result = mini_run
        ck = load_checkpoint(result.checkpoint_path)
        ck.blocks["mystery.weight"] = np.zeros(3, np.float32)
        net, _, _ = build_model(result.config)
        with pytest.raises(ValueError, match="no home"):
            load_model_state(net, ck)

    def test_missing_block_rejected(self, mini_run):
        cfg, result = mini_run
        ck = load_checkpoint(result.checkpoint_path)
        del ck.blocks["fc_out.bias"]
        net, _, _ = build_model(result.config)
        with pytest.raises(ValueError, match="missing"):
            load_model_state(net, ck)

    def test_displacement_measures_travel(self, mini_run):
        cfg, result = mini_run
        reference = init_filter_bank(result.config.init_config,
                                     result.config.resolution,
                                     channel_count=1, dtype=np.float32)
        moved = probing_displacement(reference.locations, result.bank)
        manual = np.linalg.norm(
            result.bank.locations.astype(np.float64) - reference.locations,
            axis=2).mean()
        assert moved == pytest.approx(manual)

    def test_checkpoint_bank_is_not_drawn(self, workbench, mini_run,
                                          tmp_path, monkeypatch):
        cfg, result = mini_run
        ds = ShapeDataset(workbench["test"], cfg.resolution, class_count=2)
        cache = FieldCache(workbench["cache"], cfg.resolution, cfg.channels)
        x = [cache.field_for(ds, i) for i in range(len(ds))]
        for layer in result.net.layers[:-1]:
            x = layer.forward(x, train=False)
        expected = "id,label," + ",".join(
            "f%d" % i for i in range(x.shape[1])) + "\n" + "".join(
            "%s,%d,%s\n" % (ds.id(i), ds.label(i),
                            ",".join("%.9g" % v for v in row))
            for i, row in enumerate(x))

        def no_draw(*args, **kwargs):
            raise AssertionError("a filter bank was drawn")

        monkeypatch.setattr(trainer, "init_filter_bank", no_draw)
        res = evaluate_checkpoint(result.checkpoint_path, workbench["test"],
                                  cache_dir=workbench["cache"])
        assert res.accuracy == result.test_accuracy
        np.testing.assert_array_equal(res.confusion, result.confusion)
        out = str(tmp_path / "features.csv")
        extract_features(result.checkpoint_path, workbench["test"], out,
                         cache_dir=workbench["cache"])
        assert read_text(out) == expected

    @pytest.mark.parametrize("block", ["probing.locations", "probing.weights"])
    @pytest.mark.parametrize("fault, message", [
        ("missing", "missing blocks: .*'%s'"),
        ("shape", "block '%s' has shape"),
    ])
    def test_bad_probing_block_refused(self, workbench, mini_run, tmp_path,
                                       block, fault, message):
        cfg, result = mini_run
        ck = load_checkpoint(result.checkpoint_path)
        if fault == "missing":
            del ck.blocks[block]
        else:
            ck.blocks[block] = ck.blocks[block][:, 1:]
        path = str(tmp_path / "bad.fpck")
        save_checkpoint(path, ck.iteration, ck.blocks, ck.config_text,
                        ck.rng_state)
        with pytest.raises(ValueError, match=message % block):
            evaluate_checkpoint(path, workbench["test"])


class TestGradientAudit:
    def test_all_layers_pass_tolerance(self):
        report = gradient_check_report()
        assert set(report) == {"fc", "bn", "dropout", "composed", "probing"}
        for name, err in report.items():
            assert err <= 1e-4, (name, err)

    def test_single_layer_filter(self):
        report = gradient_check_report(layer="fc")
        assert set(report) == {"fc"}

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown layer"):
            gradient_check_report(layer="conv")


class TestFilterSpanSweep:
    def test_wide_spans_do_not_trail_narrow(self, tmp_path_factory):
        """Longer probing segments should classify at least as well as
        near-point filters, within noise."""
        root = tmp_path_factory.mktemp("sweep")
        spec = SyntheticSpec(classes=("sphere", "box", "cone"),
                             train_per_class=8, test_per_class=6,
                             jitter=0.3, seed=9)
        tr, te = generate_synthetic(spec, str(root / "data"))
        accs = {}
        for tag, low, high in (("wide", 0.2, 0.8), ("narrow", 0.1, 0.2)):
            cfg = TrainConfig(train_manifest=tr, test_manifest=te,
                              batch_size=8, max_iterations=250,
                              checkpoint_every=0, eval_every=0,
                              length_low=low, length_high=high,
                              cache_dir=str(root / "cache"),
                              out_dir=str(root / tag))
            accs[tag] = train(cfg).test_accuracy
        assert accs["wide"] >= accs["narrow"] - 0.02
