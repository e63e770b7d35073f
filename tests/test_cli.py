"""End-to-end smoke tests for the command-line interface."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fieldprobe
from fieldprobe.cli import build_parser, main
from fieldprobe.field import load_field
from fieldprobe.trainer import load_checkpoint

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fieldprobe.__file__)))

# Runs the CLI on argv[3:] and exits the process, without flushing any
# buffer (as SIGKILL would), just before or just after (argv[1]) a rename
# onto a file named argv[2].
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
        def run_config(name):
            cfg = tmp_path / (name + ".cfg")
            cfg.write_text(TRAIN_CFG.replace("data/", str(workspace / "data")
                                             + "/")
                           .replace("out_dir=run", "out_dir=" + name)
                           .replace("max_iterations=10", "max_iterations=20"))
            return str(cfg)

        assert main(["train", "--config", run_config("whole")]) == 0
        killed = run_config("killed")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run(
            [sys.executable, "-c", EXIT_AT_RENAME, when, "ckpt_000010.fpck",
             "train", "--config", killed],
            cwd=str(tmp_path), env=env, capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 9, done.stderr[-2000:]
        run, whole = tmp_path / "killed", tmp_path / "whole"
        assert not (run / "final.fpck").exists()
        assert (run / "ckpt_000010.fpck").exists() == (when == "after")
        assert main(["train", "--config", killed,
                     "--resume", str(run / resume)]) == 0
        assert (run / "final.fpck").read_bytes() == \
            (whole / "final.fpck").read_bytes()
        lines = (run / "metrics.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss,train_acc,eval_acc,wall_ms"
        assert [int(line.split(",")[0]) for line in lines[1:]] == \
            list(range(1, 21))

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


class TestBench:

    def test_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        code = main(["bench", "--resolutions", "8,12",
                     "--grid-divisions", "1", "--filters-per-cell", "2",
                     "--points-per-filter", "3", "--channel-count", "1",
                     "--kernel", "2", "--conv-channels", "2",
                     "--out", out])
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[1] == "resolution,kind,mean_ms,std_ms,macs,bytes"
        assert len(lines) == 2 + 4
        assert "wrote" in capsys.readouterr().out

    def test_bad_mode_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["bench", "--mode", "adaptive"])

    def test_workers_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["bench", "--workers", "2"])


def readme_commands():
    """Argument lists of the README's Command line block, with brackets
    dropped and the first alternative of each `|` taken."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        block = handle.read().split("## Command line", 1)[1].split("```")[1]
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


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit):
        main(["transmogrify"])
