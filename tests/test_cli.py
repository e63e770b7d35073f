"""End-to-end smoke tests for the command-line interface."""

import argparse
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

import fieldprobe
from fieldprobe import nn, trainer
from fieldprobe.cli import build_parser, main
from fieldprobe.field import load_field
from fieldprobe.ingest import parse_perturbation_modes
from fieldprobe.trainer import (
    FieldCache,
    ShapeDataset,
    TrainConfig,
    gradient_check_report,
    load_checkpoint,
    sample_seed,
    save_checkpoint,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fieldprobe.__file__)))

# Runs the CLI on argv[3:] (a train, or an eval that writes view entries)
# and exits the process, without flushing any buffer (as SIGKILL would),
# just before or just after (argv[1]) a rename onto a file named argv[2],
# on whichever thread makes it.
EXIT_AT_RENAME = """
import os, sys
from fieldprobe.cli import main
replace = os.replace
def replace_and_exit(src, dst):
    hit = os.path.basename(dst) == sys.argv[2]
    if hit and sys.argv[1] == "before":
        os._exit(9)
    replace(src, dst)
    if hit:
        os._exit(9)
os.replace = replace_and_exit
main(sys.argv[3:])
"""

# Runs `fieldprobe train` on argv[2:] and sends itself SIGKILL inside the
# first iteration that finds, in the run directory argv[1], a whole
# metrics.csv row past the newest checkpoint: between two checkpoint
# writes, so no rename is in flight.
KILL_PAST_CHECKPOINT = """
import glob, os, signal, sys
from fieldprobe import trainer
from fieldprobe.cli import main
run = sys.argv[1]
loss = trainer.softmax_cross_entropy
def rows_past_checkpoint():
    done = [int(os.path.basename(path)[5:11])
            for path in glob.glob(os.path.join(run, "ckpt_*.fpck"))]
    with open(os.path.join(run, "metrics.csv"), "rb") as handle:
        rows = handle.read().split(b"\\n")[1:-1]
    return bool(done and rows) and int(rows[-1].split(b",")[0]) > max(done)
def loss_or_kill(*args):
    if rows_past_checkpoint():
        os.kill(os.getpid(), signal.SIGKILL)
    return loss(*args)
trainer.softmax_cross_entropy = loss_or_kill
main(sys.argv[2:])
"""

TRAIN_CFG = """\
train_manifest=data/train.tsv
test_manifest=data/test.tsv
cache_dir=cache
out_dir=run
resolution=16
grid_divisions=2
filters_per_cell=1
points_per_filter=4
batch_size=4
max_iterations=10
checkpoint_every=5
eval_every=5
"""


def run_config(workspace, tmp_path, name, *edits):
    """TRAIN_CFG written to `tmp_path`, reading the workspace's data and
    writing to `name`, with each (old, new) text edit applied."""
    text = TRAIN_CFG.replace("data/", str(workspace / "data") + "/") \
        .replace("out_dir=run", "out_dir=" + name)
    for old, new in edits:
        text = text.replace(old, new)
    path = tmp_path / (name + ".cfg")
    path.write_text(text)
    return str(path)


def run_harness(script, args, cwd):
    """Run `script` with `args` in a subprocess that imports this tree's
    fieldprobe; returns the finished process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, "-c", script] + args,
                          cwd=str(cwd), env=env, capture_output=True,
                          text=True, timeout=300)


def exit_at_rename(when, name, argv, cwd):
    """Run the CLI on `argv` in a subprocess that exits `when` ("before"
    or "after") the rename onto a file named `name`."""
    done = run_harness(EXIT_AT_RENAME, [when, name] + argv, cwd)
    assert done.returncode == 9, done.stderr[-2000:]


def metrics_iterations(run):
    lines = (run / "metrics.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss,train_acc,eval_acc,wall_ms"
    return [int(line.split(",")[0]) for line in lines[1:]]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated two-class dataset plus one trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "data.spec"
    spec.write_text("classes=sphere,box\ntrain_per_class=6\n"
                    "test_per_class=3\njitter=0.3\nseed=1\n")
    assert main(["gen-synthetic", "--spec", str(spec),
                 "--out", str(root / "data")]) == 0
    cfg = root / "train.cfg"
    cfg.write_text(TRAIN_CFG)
    assert main(["train", "--config", str(cfg)]) == 0
    return root


class TestVoxelize:

    def test_writes_field_file(self, workspace, tmp_path):
        source = str(workspace / "data" / "shapes" / "sphere_train_000.off")
        out = str(tmp_path / "sphere.fpf")
        code = main(["voxelize", "--in", source, "--res", "16",
                     "--out", out])
        assert code == 0
        field = load_field(out)
        assert field.values.shape == (4, 16, 16, 16)

    def test_channel_choice(self, workspace, tmp_path):
        source = str(workspace / "data" / "shapes" / "box_train_001.off")
        out = str(tmp_path / "box.fpf")
        assert main(["voxelize", "--in", source, "--res", "16",
                     "--out", out, "--channels", "distance"]) == 0
        assert load_field(out).values.shape == (1, 16, 16, 16)

    def test_rejects_unknown_extension(self, tmp_path, capsys):
        bad = tmp_path / "shape.stl"
        bad.write_text("solid nope")
        code = main(["voxelize", "--in", str(bad), "--res", "16",
                     "--out", str(tmp_path / "x.fpf")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGenSynthetic:

    def test_layout(self, workspace):
        data = workspace / "data"
        assert (data / "train.tsv").exists()
        assert (data / "test.tsv").exists()
        shapes = os.listdir(data / "shapes")
        assert len(shapes) == 2 * (6 + 3)

    def test_bad_spec_reports_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("classes=sphere,box\nwarp=9\n")
        assert main(["gen-synthetic", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:

    def test_artifacts_exist(self, workspace):
        run = workspace / "run"
        assert (run / "final.fpck").exists()
        assert (run / "ckpt_000010.fpck").exists()
        lines = (run / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss,train_acc,eval_acc,wall_ms"
        assert len(lines) == 11

    def test_missing_config_reports_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("when, resume", [
        ("after", "ckpt_000010.fpck"),
        ("before", "ckpt_000005.fpck"),
    ])
    def test_killed_at_checkpoint_then_resumed(self, workspace, tmp_path,
                                               when, resume):
        def config(name):
            return run_config(workspace, tmp_path, name,
                              ("max_iterations=10", "max_iterations=20"))

        assert main(["train", "--config", config("whole")]) == 0
        killed = config("killed")
        exit_at_rename(when, "ckpt_000010.fpck",
                       ["train", "--config", killed], tmp_path)
        run, whole = tmp_path / "killed", tmp_path / "whole"
        assert not (run / "final.fpck").exists()
        assert (run / "ckpt_000010.fpck").exists() == (when == "after")
        assert main(["train", "--config", killed,
                     "--resume", str(run / resume)]) == 0
        assert (run / "final.fpck").read_bytes() == \
            (whole / "final.fpck").read_bytes()
        assert metrics_iterations(run) == list(range(1, 21))

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_killed_at_cache_entry_then_rerun(self, workspace, tmp_path,
                                              when):
        # each run starts on a cold cache of its own; the first evaluation,
        # at iteration 5, writes the test samples' fields on the calling
        # thread before ckpt_000005.fpck lands
        def config(name):
            return run_config(workspace, tmp_path, name,
                              ("cache_dir=cache", "cache_dir=%s_cache" % name))

        assert main(["train", "--config", config("whole")]) == 0
        killed = config("killed")
        cfg = TrainConfig.from_file(killed)
        ds = ShapeDataset(cfg.test_manifest, cfg.resolution)
        entry = FieldCache(cfg.cache_dir, cfg.resolution, cfg.channels,
                           cfg.samples_per_area)._path(
            (ds.paths[3], sample_seed(ds.id(3))), ())
        exit_at_rename(when, os.path.basename(entry),
                       ["train", "--config", killed], tmp_path)
        run = tmp_path / "killed"
        assert os.path.exists(entry) == (when == "after")
        assert not (run / "ckpt_000005.fpck").exists()

        # no checkpoint landed, so the rerun starts afresh
        assert main(["train", "--config", killed]) == 0
        assert (run / "final.fpck").read_bytes() == \
            (tmp_path / "whole" / "final.fpck").read_bytes()
        assert metrics_iterations(run) == list(range(1, 11))
        entries = sorted(name for name in os.listdir(cfg.cache_dir)
                         if name.endswith(".fpf"))
        assert entries == sorted(
            name for name in os.listdir(tmp_path / "whole_cache")
            if name.endswith(".fpf"))
        for name in entries:
            load_field(os.path.join(cfg.cache_dir, name))

    def test_killed_between_iterations_then_resumed(self, workspace,
                                                    tmp_path):
        # 400 rows outgrow metrics.csv's write buffer, so rows past a
        # checkpoint reach the file before the next checkpoint does
        def config(name):
            return run_config(workspace, tmp_path, name,
                              ("max_iterations=10", "max_iterations=900"),
                              ("checkpoint_every=5", "checkpoint_every=400"),
                              ("eval_every=5", "eval_every=400"))

        assert main(["train", "--config", config("whole")]) == 0
        killed = config("killed")
        run = tmp_path / "killed"
        done = run_harness(KILL_PAST_CHECKPOINT,
                           [str(run), "train", "--config", killed], tmp_path)
        assert done.returncode == -signal.SIGKILL, done.stderr[-2000:]
        assert sorted(os.listdir(run)) == ["ckpt_000400.fpck", "metrics.csv"]
        whole_rows = (run / "metrics.csv").read_bytes().split(b"\n")[1:-1]
        assert int(whole_rows[-1].split(b",")[0]) > 400
        assert main(["train", "--config", killed,
                     "--resume", str(run / "ckpt_000400.fpck")]) == 0
        assert (run / "final.fpck").read_bytes() == \
            (tmp_path / "whole" / "final.fpck").read_bytes()
        assert metrics_iterations(run) == list(range(1, 901))

    def test_resume_flag(self, workspace, capsys):
        ckpt = str(workspace / "run" / "ckpt_000005.fpck")
        cfg = str(workspace / "train.cfg")
        assert main(["train", "--config", cfg, "--resume", ckpt]) == 0
        out = capsys.readouterr().out
        assert "test accuracy:" in out


class TestEval:

    def test_prints_accuracy_and_confusion(self, workspace, capsys):
        code = main(["eval", "--ckpt", str(workspace / "run" / "final.fpck"),
                     "--manifest", str(workspace / "data" / "test.tsv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert "confusion" in out
        assert len(out.strip().splitlines()) == 2 + 2  # header lines + 2 rows

    def test_perturbed(self, workspace, capsys):
        code = main(["eval", "--ckpt", str(workspace / "run" / "final.fpck"),
                     "--manifest", str(workspace / "data" / "test.tsv"),
                     "--perturb", "R15+T01+S"])
        assert code == 0
        assert "accuracy:" in capsys.readouterr().out

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_killed_at_view_entry_then_rerun(self, workspace, tmp_path,
                                             capsys, monkeypatch, when):
        # two pipeline workers, so a pass that builds views uses a pool
        source = load_checkpoint(str(workspace / "run" / "final.fpck"))
        text = source.config_text.replace("pipeline_workers=1",
                                          "pipeline_workers=2")
        ckpt = str(tmp_path / "wide.fpck")
        save_checkpoint(ckpt, source.iteration, source.blocks, text,
                        source.rng_state)
        manifest = str(workspace / "data" / "test.tsv")
        argv = ["eval", "--ckpt", ckpt, "--manifest", manifest,
                "--perturb", "R15"]
        assert main(argv) == 0
        whole = capsys.readouterr().out

        cfg = TrainConfig.from_text(text)
        views = tmp_path / "views"
        ds = ShapeDataset(manifest, cfg.resolution)
        entry = FieldCache(str(views), cfg.resolution, cfg.channels,
                           cfg.samples_per_area)._path(
            (ds.paths[3], sample_seed(ds.id(3))),
            parse_perturbation_modes("R15"))
        argv += ["--cache-dir", str(views)]
        exit_at_rename(when, os.path.basename(entry), argv, tmp_path)
        assert os.path.exists(entry) == (when == "after")
        # the other worker may have been writing an entry of its own
        leftovers = [name for name in os.listdir(views)
                     if name.endswith(".tmp")]
        assert any(name.startswith(os.path.basename(entry) + ".")
                   for name in leftovers) == (when == "before")

        # the rerun builds what the kill left out and scores as before
        assert main(argv) == 0
        assert capsys.readouterr().out == whole
        assert len([name for name in os.listdir(views)
                    if name.endswith(".fpf")]) == len(ds)

        # a third pass, with the leftovers deleted, only loads: no pool
        for name in leftovers:
            os.remove(os.path.join(views, name))

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(trainer, "ThreadPoolExecutor", no_pool)
        assert main(argv) == 0
        assert capsys.readouterr().out == whole


class TestExtractFeatures:

    def test_writes_csv(self, workspace, tmp_path):
        out = str(tmp_path / "features.csv")
        code = main(["extract-features",
                     "--ckpt", str(workspace / "run" / "final.fpck"),
                     "--manifest", str(workspace / "data" / "test.tsv"),
                     "--out", out])
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0].startswith("id,label,f0,")
        assert len(lines) == 1 + 6


class TestDonor:

    def test_head_only_resume_matches_uninterrupted(self, workspace):
        # the config records freeze_probing, so a plain --resume continues
        # the head-only fine-tune
        path = workspace / "ft.cfg"
        path.write_text(TRAIN_CFG.replace("out_dir=run", "out_dir=ft")
                        + "freeze_probing=true\n")
        cfg = str(path)
        donor = str(workspace / "run" / "final.fpck")
        assert main(["train", "--config", cfg, "--donor", donor]) == 0
        final = workspace / "ft" / "final.fpck"
        uninterrupted = final.read_bytes()
        tuned = load_checkpoint(str(final))
        source = load_checkpoint(donor)
        for name in ("probing.locations", "probing.weights"):
            np.testing.assert_array_equal(tuned.blocks[name],
                                          source.blocks[name])
        final.unlink()
        assert main(["train", "--config", cfg, "--resume",
                     str(workspace / "ft" / "ckpt_000005.fpck")]) == 0
        assert final.read_bytes() == uninterrupted

    def test_donor_with_resume_is_usage_error(self, workspace, capsys):
        ckpt = str(workspace / "run" / "final.fpck")
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", str(workspace / "train.cfg"),
                  "--resume", ckpt, "--donor", ckpt])
        assert info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestGradcheck:

    def test_single_layer(self, capsys):
        assert main(["gradcheck", "--layer", "fc"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fc")
        assert " ok" in out

    def test_unknown_layer(self, capsys):
        assert main(["gradcheck", "--layer", "warp"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sees_batchnorm_input_gradient(self, monkeypatch, capsys):
        backward = nn.BatchNorm.backward

        def without_mean_term(self, upstream):
            # cancels the input gradient's -inv_std * mean(dxhat) term
            _, inv_std = self._cache
            return (backward(self, upstream)
                    + inv_std * (upstream * self.gamma.values).mean(axis=0))

        monkeypatch.setattr(nn.BatchNorm, "backward", without_mean_term)
        assert main(["gradcheck"]) == 1
        assert "exceeds" in capsys.readouterr().err


class TestBench:

    def test_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        code = main(["bench", "--resolutions", "8,12", "--out", out])
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[1] == "resolution,kind,mean_ms,std_ms,macs,bytes"
        assert len(lines) == 2 + 4
        assert "wrote" in capsys.readouterr().out


def readme_block():
    """The README's Command line block."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        return handle.read().split("## Command line", 1)[1].split("```")[1]


def readme_commands():
    """Argument lists of the README's Command line block, with brackets
    dropped and the first alternative of each `|` taken."""
    block = readme_block()
    commands = []
    for line in block.splitlines():
        if line.startswith("fieldprobe "):
            line = re.sub(r"\[([^]]*)\]",
                          lambda group: group[1].split("|")[0], line)
            commands.append([token.split("|")[0]
                             for token in line.split()[1:]])
    return commands


@pytest.mark.parametrize("argv", readme_commands(),
                         ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail("README names an unknown command or flag: fieldprobe "
                    + " ".join(argv))


def test_readme_names_every_flag():
    named = {}
    for argv in readme_commands():
        named.setdefault(argv[0], set()).update(
            token for token in argv if token.startswith("--"))
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    missing = ["%s %s" % (name, flag)
               for name, parser in commands.choices.items()
               for action in parser._actions
               for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"
               and flag not in named.get(name, ())]
    assert not missing, ("README's Command line block does not name: "
                         + ", ".join(missing))


def test_gradcheck_recipe_names_agree():
    (readme,) = re.findall(r"gradcheck \[--layer ([^]]*)\]", readme_block())
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (layer,) = [action for action in commands.choices["gradcheck"]._actions
                if "--layer" in action.option_strings]
    (helped,) = re.findall(r"\(([^)]*)\)", layer.help)
    recipes = set(gradient_check_report())
    assert set(readme.split("|")) == recipes
    assert set(helped.split(", ")) == recipes


@pytest.mark.parametrize("argv", [
    ["bench", "--mode", "adaptive"],
    ["bench", "--workers", "2"],
    ["bench", "--reps", "10"],
    ["bench", "--grid-divisions", "4"],
    ["bench", "--filters-per-cell", "16"],
    ["bench", "--points-per-filter", "8"],
    ["bench", "--channel-count", "4"],
    ["bench", "--kernel", "6"],
    ["bench", "--conv-channels", "48"],
    ["gradcheck", "--seed", "0"],
], ids=lambda argv: argv[1])
def test_removed_flag_is_usage_error(argv):
    with pytest.raises(SystemExit):
        main(argv)


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit):
        main(["transmogrify"])
