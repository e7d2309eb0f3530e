"""Command-line interface: parsing, exit codes and the full pipeline."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from hdcaps import cli, dataio
from hdcaps.config import TrainConfig
from hdcaps.errors import DivergenceError


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
    rc = cli.main(["gen-synth", "--out", str(tmp_path / "s"), "--size", "64"])
    assert rc == 1
    assert "--size" in capsys.readouterr().err


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
    ("adam_eps = -1\n", "adam_eps must be > 0", 2),
    ("adam_beta1 = 2\n", "adam_beta1 must be in [0, 1)", 2),
    ("adam_beta2 = 1\n", "adam_beta2 must be in [0, 1)", 2),
])
def test_parse_config_errors_cite_line(tmp_path, text, fragment, lineno):
    path = write(tmp_path / "bad.cfg", "# header\n" + text)
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(path)
    msg = str(exc.value)
    assert fragment in msg
    assert f"{path}:{lineno}" in msg


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


def test_divergence_is_exit_3(capsys, tmp_path, monkeypatch):
    scene = str(tmp_path / "scene")
    cli.main(["gen-synth", "--out", scene, "--size", "8x8", "--classes", "2",
              "--bands", "4"])

    def explode(*args, **kwargs):
        raise DivergenceError("enc_hsi.lift_w")

    monkeypatch.setattr("hdcaps.training.train", explode)
    rc = cli.main(["train", "--data", scene, "--out", str(tmp_path / "ck"),
                   "--quiet"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


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


def replaced(obj, keys, value):
    """obj with the entry at the path of keys set to value."""
    if not keys:
        return value
    return {**obj, keys[0]: replaced(obj[keys[0]], keys[1:], value)}


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
