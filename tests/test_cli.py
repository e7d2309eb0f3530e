"""Command-line interface: parsing, exit codes and the full pipeline."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hdcaps import cli, dataio, training
from hdcaps.config import TrainConfig
from hdcaps.errors import DivergenceError

LOG_COLUMNS = ["epoch", "equ_hsi", "inv_hsi", "cham_hsi", "equ_lidar",
               "inv_lidar", "cham_lidar", "kl", "total"]


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


# ---------------------------------------------------------------- parsing

def test_no_arguments_prints_usage_to_stderr(capsys):
    assert cli.main([]) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.err
    assert captured.out == ""


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_synth_rejects_malformed_size(capsys, tmp_path):
    for size in ("64", "0x5", "8x", "8x8x8", "ax8"):
        rc = cli.main(["gen-synth", "--out", str(tmp_path / "s"), "--size", size])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"argument --size: must look like HxW with H and W at least 1, got {size!r}" in err
    assert not (tmp_path / "s").exists()


def test_parse_config_overrides_and_defaults(tmp_path):
    path = write(tmp_path / "a.cfg", "K = 3\nC = 8\n")
    cfg = cli.parse_config(path)
    assert cfg.K == 3 and cfg.C == 8
    base = TrainConfig()
    assert cfg.epochs == base.epochs and cfg.lr == base.lr


def test_parse_config_empty_file_gives_defaults(tmp_path):
    path = write(tmp_path / "a.cfg", "")
    assert cli.parse_config(path) == TrainConfig()


def test_parse_config_ignores_comments_and_blanks(tmp_path):
    path = write(tmp_path / "a.cfg", "# top\n\nK = 4  # inline\n\n")
    assert cli.parse_config(path).K == 4


@pytest.mark.parametrize("text,fragment,lineno", [
    ("wibble = 3\n", "unknown key", 2),
    ("K = 3\nK = 5\n", "duplicate key", 3),
    ("K = many\n", "must be an integer", 2),
    ("just words\n", "expected key=value", 2),
    ("K = 0\n", "K must be >= 1", 2),
    ("b = 4\n", "center pixel", 2),
    ("lr = nan\n", "lr must be finite", 2),
    ("alpha = inf\n", "alpha must be finite", 2),
    ("gamma = nan\n", "gamma must be finite", 2),
    ("adam_eps = 1e-6\n", "unknown key 'adam_eps'", 2),
])
def test_parse_config_errors_cite_line(tmp_path, text, fragment, lineno):
    path = write(tmp_path / "bad.cfg", "# header\n" + text)
    with pytest.raises(cli.UsageError) as exc:
        cli.parse_config(path)
    msg = str(exc.value)
    assert fragment in msg
    assert f"{path}:{lineno}" in msg


def test_cli_and_model_imports_load_no_scipy():
    # only laplacian_eigenmaps loads scipy: importing the package's
    # modules, evaluation among them, leaves it unloaded
    code = ("import sys, hdcaps.cli, hdcaps.model, hdcaps.training, hdcaps.dataio, "
            "hdcaps.evaluation; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_config_file_is_exit_1(capsys, tmp_path):
    scene = str(tmp_path / "scene")
    cli.main(["gen-synth", "--out", scene, "--size", "8x8", "--classes", "2",
              "--bands", "4"])
    capsys.readouterr()
    rc = cli.main(["train", "--data", scene, "--out", str(tmp_path / "ck"),
                   "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_nonfinite_config_value_is_exit_1(capsys, tmp_path):
    scene = str(tmp_path / "scene")
    cli.main(["gen-synth", "--out", scene, "--size", "8x8", "--classes", "2",
              "--bands", "4"])
    capsys.readouterr()
    cfg = write(tmp_path / "bad.cfg", "epochs = 1\nlr = nan\n")
    rc = cli.main(["train", "--data", scene, "--out", str(tmp_path / "ck"),
                   "--config", cfg, "--quiet"])
    assert rc == 1
    assert f"{cfg}:2: lr must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "ck")


# ------------------------------------------------------------- exit codes

def test_missing_scene_is_exit_2(capsys, tmp_path):
    rc = cli.main(["train", "--data", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "ck")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_out_of_memory_is_one_line_and_exit_2(capsys, tmp_path, monkeypatch):
    # raised, not provoked: a real scene this size could exhaust a host
    # that overcommits memory
    message = ("Unable to allocate 7.28 PiB for an array with shape "
               "(1000000, 1000000, 1) and data type float64")

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(dataio, "gen_synthetic", too_large)
    rc = cli.main(["gen-synth", "--out", str(tmp_path / "s"),
                   "--size", "1000000x1000000"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert not (tmp_path / "s").exists()


def test_malformed_feature_file_is_exit_2(capsys, tmp_path):
    path = str(tmp_path / "bad.hdcf")
    with open(path, "wb") as fh:
        fh.write(b"not a feature container")
    rc = cli.main(["eval", "--features", path])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_gradcheck_ok_is_exit_0(capsys):
    assert cli.main(["gradcheck", "--samples", "4"]) == 0
    assert "gradcheck ok" in capsys.readouterr().out


def test_gradcheck_impossible_tolerance_is_exit_3(capsys):
    rc = cli.main(["gradcheck", "--samples", "4", "--tol", "1e-12"])
    assert rc == 3
    assert "gradient check failed" in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (["--samples", "0"], "--samples"),
    (["--samples", "-1"], "--samples"),
    (["--tol", "nan"], "--tol"),
    (["--tol", "inf"], "--tol"),
    (["--tol", "-0.001"], "--tol"),
    (["--seed", "0", "-1"], "--seed"),
])
def test_gradcheck_rejects_vacuous_or_bad_arguments(capsys, args, flag):
    assert cli.main(["gradcheck", *args]) == 1
    captured = capsys.readouterr()
    assert "gradcheck ok" not in captured.out
    assert captured.err.startswith("error: ") and f"argument {flag}:" in captured.err


@pytest.mark.parametrize("value", ["-1e-4", "-1E+2", "-.5e1"])
def test_negative_exponent_value_is_usage_error(capsys, value):
    # argparse reads a negative number with an exponent as an option, so
    # --tol is left without its argument
    assert cli.main(["gradcheck", "--tol", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "argument --tol:" in err


@pytest.mark.parametrize("command", [
    ["gen-synth", "--out", "unused"],
    ["eval", "--features", "unused.hdcf"],
    ["baseline", "--data", "unused"],
])
def test_negative_seed_is_usage_error(capsys, command):
    assert cli.main([*command, "--seed", "-1"]) == 1
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value, requirement", [
    (["baseline", "--data", "unused"], "--dim", "0", "at least 1"),
    (["baseline", "--data", "unused"], "--neighbors", "0", "at least 1"),
    (["baseline", "--data", "unused"], "--neighbors", "-3", "at least 1"),
    (["baseline", "--data", "unused"], "--train-frac", "0", "strictly between"),
    (["baseline", "--data", "unused"], "--train-frac", "1.5", "strictly between"),
    (["eval", "--features", "unused.hdcf"], "--train-frac", "0", "strictly between"),
    (["eval", "--features", "unused.hdcf"], "--train-frac", "1.5", "strictly between"),
])
def test_bad_baseline_or_eval_option_is_usage_error(capsys, command, flag, value,
                                                    requirement):
    assert cli.main([*command, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"argument {flag}: must be {requirement}" in err


@pytest.mark.parametrize("flag, value", [("--bands", "0"), ("--classes", "0")])
def test_gen_synth_bad_option_is_usage_error(capsys, tmp_path, flag, value):
    # a bad option value is rejected at parse time, before any scene is made
    scene = tmp_path / "scene"
    assert cli.main(["gen-synth", "--out", str(scene), "--size", "8x8",
                     flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"argument {flag}: must be at least 1, got {value!r}" in err
    assert not scene.exists()


@pytest.mark.parametrize("flag, value", [
    ("--noise-spec", "0.1"), ("--noise-elev", "0.1"), ("--class-sep", "1.2"),
])
def test_gen_synth_recipe_flags_are_unrecognized(capsys, tmp_path, flag, value):
    # the synthetic recipe is fixed: even its own values are refused
    scene = tmp_path / "scene"
    assert cli.main(["gen-synth", "--out", str(scene), "--size", "8x8",
                     flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"unrecognized arguments: {flag} {value}" in err
    assert not scene.exists()


@pytest.mark.parametrize("command", ["gen-synth", "train"])
def test_output_directory_that_is_a_file_is_exit_2(pipeline, capsys, tmp_path,
                                                   command):
    out = write(tmp_path / "taken", "keep")
    args = {"gen-synth": ["gen-synth", "--out", out, "--size", "8x8"],
            "train": ["train", "--data", pipeline["scene"], "--out", out,
                      "--quiet"]}[command]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert out in captured.err
    assert os.listdir(tmp_path) == ["taken"]
    assert Path(out).read_text() == "keep"


@pytest.mark.parametrize("command", ["baseline", "eval"])
def test_report_path_that_is_a_directory_is_exit_2(pipeline, capsys, tmp_path,
                                                   command):
    report = tmp_path / "report"
    report.mkdir()
    args = {"baseline": ["baseline", "--data", pipeline["scene"]],
            "eval": ["eval", "--features", pipeline["feats"]]}[command]
    assert cli.main(args + ["--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(report) in captured.err
    # the temp file of the failed atomic write is removed
    assert os.listdir(tmp_path) == ["report"] and os.listdir(report) == []


@pytest.mark.parametrize("command", ["extract", "baseline"])
def test_missing_output_directory_is_exit_2(pipeline, capsys, tmp_path, command):
    out = str(tmp_path / "nodir" / "out")
    args = {"extract": ["extract", "--model", pipeline["ckpt"], "--data",
                        pipeline["scene"], "--out", out],
            "baseline": ["baseline", "--data", pipeline["scene"], "--report", out]}
    assert cli.main(args[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # the message names the path asked for, not the atomic write's temp file
    assert captured.err.rstrip().endswith(f"'{out}'") and ".tmp" not in captured.err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["baseline", "eval"])
def test_single_pixel_classes_empty_test_split_is_exit_2(capsys, tmp_path, command):
    scene = str(tmp_path / "scene")
    rng = np.random.default_rng(0)
    dataio.write_scene(scene, rng.normal(size=(1, 2, 3)), np.zeros((1, 2)),
                       np.array([[1, 2]]))
    feats = str(tmp_path / "f.hdcf")
    dataio.write_features(feats, [0, 0], [0, 1], [1, 2], rng.normal(size=(2, 4)))
    args = {"baseline": ["baseline", "--data", scene],
            "eval": ["eval", "--features", feats]}[command]
    assert cli.main(args) == 2
    assert "test split is empty" in capsys.readouterr().err


def test_divergence_is_exit_3(capsys, tmp_path, monkeypatch):
    scene = str(tmp_path / "scene")
    cli.main(["gen-synth", "--out", scene, "--size", "8x8", "--classes", "2",
              "--bands", "4"])

    rows = [{"epoch": epoch, **dict.fromkeys(LOG_COLUMNS[1:], 1.5 + epoch)}
            for epoch in range(2)]

    def read_log():
        with open(tmp_path / "ck" / "train_log.csv", newline="") as fh:
            return list(csv.reader(fh))

    def explode(*args, progress, **kwargs):
        # the header, then each finished epoch, is on disk while training runs
        assert read_log() == [LOG_COLUMNS]
        for epoch, row in enumerate(rows):
            progress(row)
            assert len(read_log()) == epoch + 2
        raise DivergenceError("enc_hsi.lift_w", "gradient is not finite",
                              epoch=2, step=7)

    monkeypatch.setattr("hdcaps.training.train", explode)
    rc = cli.main(["train", "--data", scene, "--out", str(tmp_path / "ck"),
                   "--quiet"])
    assert rc == 3
    assert ("error: training diverged at epoch 2, step 7: gradient is not "
            "finite (tensor: enc_hsi.lift_w)") in capsys.readouterr().err
    # the log keeps its header and the two epochs that finished
    log = read_log()
    assert log[0] == LOG_COLUMNS
    assert log[1:] == [["0"] + ["1.5"] * 8, ["1"] + ["2.5"] * 8]


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_log_rows_are_the_returned_history(tmp_path, monkeypatch, epochs):
    scene = str(tmp_path / "scene")
    assert cli.main(["gen-synth", "--out", scene, "--size", "6x6",
                     "--classes", "2", "--bands", "4"]) == 0
    cfg = write(tmp_path / "tiny.cfg", f"K = 2\nC = 3\nH = 8\nG = 2\n"
                                       f"d_cap = 2\nepochs = {epochs}\n")
    histories = []
    real_train = training.train

    def keep(*args, **kwargs):
        histories.append(real_train(*args, **kwargs))
        return histories[-1]

    monkeypatch.setattr("hdcaps.training.train", keep)
    assert cli.main(["train", "--data", scene, "--out", str(tmp_path / "ck"),
                     "--config", cfg, "--quiet"]) == 0
    with open(tmp_path / "ck" / "train_log.csv", newline="") as fh:
        log = list(csv.reader(fh))
    history, = histories
    assert len(history) == epochs
    assert log[0] == LOG_COLUMNS
    # same columns in the same order, and each value's repr: the same bits
    assert log[1:] == [[str(value) for value in row.values()] for row in history]
    assert all(list(row) == LOG_COLUMNS for row in history)


# --------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-synth -> train -> extract once; several tests read the results."""
    root = tmp_path_factory.mktemp("pipe")
    scene = str(root / "scene")
    ckpt = str(root / "ckpt")
    feats = str(root / "feats.hdcf")
    cfg = write(root / "tiny.cfg", "K = 3\nC = 6\nepochs = 2\n")
    assert cli.main(["gen-synth", "--out", scene, "--seed", "1",
                     "--classes", "3", "--size", "16x16", "--bands", "8"]) == 0
    assert cli.main(["train", "--data", scene, "--out", ckpt,
                     "--config", cfg, "--quiet"]) == 0
    assert cli.main(["extract", "--model", ckpt, "--data", scene,
                     "--out", feats]) == 0
    return {"root": root, "scene": scene, "ckpt": ckpt, "feats": feats}


def test_gen_synth_writes_readable_scene(pipeline, capsys):
    hsi, elevation, labels = dataio.read_scene(pipeline["scene"])
    assert hsi.shape == (16, 16, 8)
    assert elevation.shape == (16, 16)
    assert labels.shape == (16, 16)
    assert set(np.unique(labels)) <= {0, 1, 2, 3}


def test_train_writes_checkpoint_and_log(pipeline):
    assert os.path.exists(os.path.join(pipeline["ckpt"], "train_log.csv"))
    with open(os.path.join(pipeline["ckpt"], "train_log.csv")) as fh:
        header = fh.readline()
    assert "epoch" in header and "total" in header


def test_eval_report_fields_and_ranges(pipeline, capsys):
    report = str(pipeline["root"] / "rep.json")
    rc = cli.main(["eval", "--features", pipeline["feats"],
                   "--train-frac", "0.2", "--seed", "0", "--report", report])
    assert rc == 0
    out = capsys.readouterr().out
    assert "oa=" in out and "kappa=" in out
    data = json.loads(Path(report).read_text())
    assert sorted(data.keys()) == ["aa", "classes", "confusion", "kappa",
                                   "oa", "per_class"]
    assert 0.0 <= data["oa"] <= 1.0
    assert 0.0 <= data["aa"] <= 1.0
    assert -1.0 <= data["kappa"] <= 1.0
    n = len(data["classes"])
    assert len(data["confusion"]) == n and len(data["per_class"]) == n


def test_eval_report_rerun_is_byte_identical(pipeline):
    a = str(pipeline["root"] / "rep_a.json")
    b = str(pipeline["root"] / "rep_b.json")
    args = ["eval", "--features", pipeline["feats"], "--train-frac", "0.2",
            "--seed", "3"]
    assert cli.main(args + ["--report", a]) == 0
    assert cli.main(args + ["--report", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.filterwarnings(
    "ignore:neighbor graph has .* components; embedding the largest only:UserWarning")
def test_baseline_methods_run_and_report(pipeline, capsys):
    for method, extra in [("raw", []), ("pca", ["--dim", "4"]),
                          ("le", ["--dim", "2", "--neighbors", "12"])]:
        report = str(pipeline["root"] / f"base_{method}.json")
        rc = cli.main(["baseline", "--data", pipeline["scene"],
                       "--method", method, "--train-frac", "0.2",
                       "--report", report] + extra)
        assert rc == 0, method
        assert f"method={method}" in capsys.readouterr().out
        data = json.loads(Path(report).read_text())
        assert 0.0 <= data["oa"] <= 1.0


def test_baseline_pca_default_dim_wider_than_features(pipeline, capsys):
    # 8 bands plus the center height: 9 raw features, under the default 32
    rc = cli.main(["baseline", "--data", pipeline["scene"], "--method", "pca"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "32" in err and "9" in err


def test_extract_rejects_band_mismatch(pipeline, capsys, tmp_path):
    other = str(tmp_path / "scene6")
    cli.main(["gen-synth", "--out", other, "--size", "16x16", "--classes", "3",
              "--bands", "6"])
    capsys.readouterr()
    rc = cli.main(["extract", "--model", pipeline["ckpt"], "--data", other,
                   "--out", str(tmp_path / "f.hdcf")])
    assert rc == 2
    assert "bands" in capsys.readouterr().err


def test_eval_labels_override(pipeline, capsys, tmp_path):
    # relabeling every pixel to the same class makes the split degenerate
    raster = np.ones((16, 16), dtype=np.int32)
    path = str(tmp_path / "labels.dten")
    dataio.write_dten(path, raster)
    rc = cli.main(["eval", "--features", pipeline["feats"], "--labels", path,
                   "--train-frac", "0.2"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_eval_labels_raster_smaller_than_scene_is_exit_2(pipeline, capsys, tmp_path):
    path = str(tmp_path / "labels.dten")
    dataio.write_dten(path, np.ones((5, 5), dtype=np.int32))
    rc = cli.main(["eval", "--features", pipeline["feats"], "--labels", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(5, 5)" in err and "(16, 16)" in err


def test_eval_labels_scores_only_labeled_rows(pipeline, capsys, tmp_path):
    _, _, labels = dataio.read_scene(pipeline["scene"])
    raster = labels.copy()
    raster[:, :8] = 0
    path = str(tmp_path / "labels.dten")
    dataio.write_dten(path, raster)
    report = str(tmp_path / "rep.json")
    rc = cli.main(["eval", "--features", pipeline["feats"], "--labels", path,
                   "--train-frac", "0.2", "--report", report])
    assert rc == 0
    data = json.loads(Path(report).read_text())
    assert data["classes"] == sorted(set(np.unique(raster)) - {0})
    # every test row is one of the right half's pixels
    assert 0 < np.sum(data["confusion"]) < (raster > 0).sum()


@pytest.mark.parametrize("fill, fragment", [
    (np.float32(2.7), "integer class labels, got float32"),
    (np.int32(0), "no feature row has a label > 0"),
], ids=["float", "unlabeled"])
def test_eval_labels_float_or_unlabeled_raster_is_exit_2(pipeline, capsys, tmp_path,
                                                          fill, fragment):
    path = str(tmp_path / "labels.dten")
    raster = np.full((16, 16), fill)
    raster[0, 0] = np.nan if raster.dtype == np.float32 else 0
    dataio.write_dten(path, raster)
    rc = cli.main(["eval", "--features", pipeline["feats"], "--labels", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def stage_args(command, pipeline, scene, tmp_path):
    """Arguments that run command, one of the three stages that read a
    scene, on the scene directory, writing under tmp_path."""
    return {
        "train": ["train", "--data", scene, "--out", str(tmp_path / "ck"), "--quiet"],
        "extract": ["extract", "--model", pipeline["ckpt"], "--data", scene,
                    "--out", str(tmp_path / "f.hdcf")],
        "baseline": ["baseline", "--data", scene],
    }[command]


@pytest.mark.parametrize("command", ["train", "extract", "baseline"])
def test_float_scene_labels_are_exit_2(pipeline, capsys, tmp_path, command):
    scene = tmp_path / "scene"
    scene.mkdir()
    src = Path(pipeline["scene"])
    for name in ("hsi.dten", "lidar.dten"):
        (scene / name).write_bytes((src / name).read_bytes())
    _, _, labels = dataio.read_scene(str(src))
    dataio.write_dten(str(scene / "labels.dten"), labels.astype(np.float32))
    assert cli.main(stage_args(command, pipeline, str(scene), tmp_path)) == 2
    err = capsys.readouterr().err
    assert "labels.dten must hold integer class labels, got float32" in err
    assert not os.path.exists(tmp_path / "ck")


MISSING = object()


def replaced(obj, keys, value):
    """obj with the entry at the path of keys set to value, or removed
    when value is MISSING."""
    if not keys:
        return value
    out = {**obj, keys[0]: replaced(obj[keys[0]], keys[1:], value)}
    if out[keys[0]] is MISSING:
        del out[keys[0]]
    return out


@pytest.mark.parametrize("keys,value,fragment", [
    pytest.param((), [1, 2], "not a checkpoint manifest", id="list"),
    pytest.param(("version",), 1, "version 1", id="version-1"),
    pytest.param(("params",), {"caps_hsi.w": "caps_hsi.w.dten"}, "params",
                 id="params-dict"),
    pytest.param(("c_spec",), "8", "c_spec", id="c_spec-str"),
    pytest.param(("config",), [1], "config", id="config-list"),
    pytest.param(("config", "K"), "x", "'K'", id="K-str"),
    pytest.param(("config", "lr"), "0.1", "'lr'", id="lr-str"),
    pytest.param(("config", "K"), 1.5, "'K'", id="K-float"),
    pytest.param(("config", "b"), True, "'b'", id="b-bool"),
    pytest.param(("c_spec",), MISSING, "manifest.json: missing key 'c_spec'",
                 id="no-c_spec"),
    pytest.param(("config",), MISSING, "manifest.json: missing key 'config'",
                 id="no-config"),
    pytest.param(("params",), MISSING, "manifest.json: missing key 'params'",
                 id="no-params"),
])
def test_extract_malformed_manifest_is_exit_2(pipeline, capsys, tmp_path,
                                              keys, value, fragment):
    ckpt = tmp_path / "ck"
    ckpt.mkdir()
    src = Path(pipeline["ckpt"])
    (ckpt / "params.dten").write_bytes((src / "params.dten").read_bytes())
    manifest = json.loads((src / "manifest.json").read_text())
    (ckpt / "manifest.json").write_text(json.dumps(replaced(manifest, keys, value)))
    rc = cli.main(["extract", "--model", str(ckpt), "--data", pipeline["scene"],
                   "--out", str(tmp_path / "f.hdcf")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


def test_extract_int32_checkpoint_is_exit_2(pipeline, capsys, tmp_path):
    ckpt = tmp_path / "ck"
    ckpt.mkdir()
    src = Path(pipeline["ckpt"])
    (ckpt / "manifest.json").write_bytes((src / "manifest.json").read_bytes())
    params = dataio.read_dten(str(src / "params.dten"))
    dataio.write_dten(str(ckpt / "params.dten"), np.round(params * 100).astype(np.int32))
    rc = cli.main(["extract", "--model", str(ckpt), "--data", pipeline["scene"],
                   "--out", str(tmp_path / "f.hdcf")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {ckpt / 'params.dten'} holds int32 values, expected float32\n"
    assert not os.path.exists(tmp_path / "f.hdcf")


@pytest.mark.filterwarnings("default")
def test_baseline_warnings_print_one_line_each(capsys, tmp_path):
    hsi, elevation, labels = dataio.gen_synthetic(20, 20, 3, 6,
                                                  np.random.default_rng(0))
    labels[labels == 3] = 1
    labels[5, 5] = 3  # its one pixel trains, so no test pixel is left
    scene = str(tmp_path / "scene")
    dataio.write_scene(scene, hsi, elevation, labels)
    empty_class = ("warning: 1 class(es) have no true samples; excluded from "
                   "the average accuracy")
    assert cli.main(["baseline", "--data", scene, "--method", "raw"]) == 0
    assert capsys.readouterr().err.splitlines() == [empty_class]
    # one neighbour per pixel leaves the graph in many components
    assert cli.main(["baseline", "--data", scene, "--method", "le",
                     "--neighbors", "1", "--dim", "2"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[1] == empty_class
    assert err[0].startswith("warning: neighbor graph has ")
    assert err[0].endswith(" components; embedding the largest only")


@pytest.fixture
def nan_scene(pipeline, tmp_path):
    """The pipeline scene with one NaN pixel value in hsi.dten."""
    hsi, elevation, labels = dataio.read_scene(pipeline["scene"])
    hsi[6, 11, 3] = np.nan
    scene = str(tmp_path / "nan_scene")
    dataio.write_scene(scene, hsi, elevation, labels)
    return scene


@pytest.mark.parametrize("command", ["train", "extract", "baseline"])
def test_nonfinite_scene_is_exit_2(pipeline, nan_scene, capsys, tmp_path, command):
    assert cli.main(stage_args(command, pipeline, nan_scene, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "non-finite" in captured.err and "row 6, col 11, band 3" in captured.err
    assert not os.path.exists(tmp_path / "f.hdcf")


@pytest.mark.parametrize("command", ["train", "extract", "baseline"])
def test_zero_band_scene_is_exit_2(pipeline, capsys, tmp_path, command):
    hsi, elevation, labels = dataio.read_scene(pipeline["scene"])
    scene = str(tmp_path / "no_bands")
    dataio.write_scene(scene, hsi[:, :, :0], elevation, labels)
    assert cli.main(stage_args(command, pipeline, scene, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "at least one band" in captured.err and "(16, 16, 0)" in captured.err
    assert not os.path.exists(tmp_path / "ck")
    assert not os.path.exists(tmp_path / "f.hdcf")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_eval_nonfinite_feature_is_exit_2(capsys, tmp_path, value):
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((200, 8)).astype(np.float32)
    feats[37, 5] = value
    path = str(tmp_path / "f.hdcf")
    n = np.arange(200)
    dataio.write_features(path, n // 20, n % 20, n % 3 + 1, feats)
    report = tmp_path / "r.json"
    assert cli.main(["eval", "--features", path, "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert path in captured.err and "record 37, dimension 5" in captured.err
    assert not report.exists()


def test_extract_nonfinite_checkpoint_is_exit_2(pipeline, capsys, tmp_path):
    ckpt = tmp_path / "ck"
    ckpt.mkdir()
    src = Path(pipeline["ckpt"])
    (ckpt / "manifest.json").write_bytes((src / "manifest.json").read_bytes())
    params = dataio.read_dten(str(src / "params.dten"))
    params[-1] = np.inf
    dataio.write_dten(str(ckpt / "params.dten"), params)
    rc = cli.main(["extract", "--model", str(ckpt), "--data", pipeline["scene"],
                   "--out", str(tmp_path / "f.hdcf")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    last = json.loads((src / "manifest.json").read_text())["params"][-1]
    assert str(ckpt / "params.dten") in err and last in err and "non-finite" in err
    assert not os.path.exists(tmp_path / "f.hdcf")
