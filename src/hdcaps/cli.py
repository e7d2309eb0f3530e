"""Command-line entry point.

Subcommands: gen-synth, train, extract, eval, baseline, gradcheck.
Exit codes: 0 success, 1 usage/config error, 2 data that is missing,
malformed, does not fit in memory or cannot be written, 3 numeric
failure (divergence or a failed gradient check).
Diagnostics go to stderr as a single line each, "error: <message>" or,
for a Python warning, "warning: <message>". Metric reports are JSON with
fields oa, aa, kappa, per_class, confusion and classes. Every output
file is written atomically except train's train_log.csv: its header
reaches the file before the first epoch and each epoch's row as the
epoch ends, so progress shows while training runs and a run that
diverges keeps every epoch it finished.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import warnings

import numpy as np

from . import dataio, evaluation, model, training
from .config import INT_FIELDS, TrainConfig
from .errors import DivergenceError
from .losses import LossReport

__all__ = ["main", "parse_config", "build_parser"]


class UsageError(Exception):
    """A bad command line (from argparse) or config file; exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_config(path: str) -> TrainConfig:
    """Read key=value overrides of the training defaults.

    Blank lines and #-comments are ignored. An unreadable file raises
    UsageError naming it; unknown keys, repeated keys, unparsable values
    and out-of-range values raise UsageError naming the offending line.
    """
    cfg = TrainConfig()
    valid = {f.name for f in dataclasses.fields(TrainConfig)}
    seen = set()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in valid:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            parsed = int(value) if key in INT_FIELDS else float(value)
        except ValueError:
            kind = "an integer" if key in INT_FIELDS else "a number"
            raise UsageError(
                f"{path}:{lineno}: value for {key!r} must be {kind}, got {value!r}"
            ) from None
        setattr(cfg, key, parsed)
        try:
            cfg.validate()
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return cfg


def _checked(kind, valid, requirement: str):
    """argparse type: text parsed by kind, kept if valid(value) holds."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__}, got {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_seed = _checked(int, lambda v: v >= 0, "at least 0")
_positive = _checked(int, lambda v: v >= 1, "at least 1")
_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")
_finite_nonnegative = _checked(float, lambda v: np.isfinite(v) and v >= 0,
                               "finite and non-negative")


def _size(text: str) -> tuple:
    """argparse type: HxW with H and W at least 1, as (H, W)."""
    try:
        height, width = map(int, text.lower().split("x"))
    except ValueError:
        height = width = 0
    if min(height, width) < 1:
        raise argparse.ArgumentTypeError(
            f"must look like HxW with H and W at least 1, got {text!r}")
    return height, width


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hdcaps",
                     description="two-branch capsule feature extraction")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-synth", help="write a random synthetic scene")
    p.add_argument("--out", required=True, help="output scene directory")
    p.add_argument("--size", type=_size, default="48x48", help="scene extent as HxW")
    p.add_argument("--bands", type=_positive, default=20)
    p.add_argument("--classes", type=_positive, default=4)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("train", help="train the autoencoder on a scene")
    p.add_argument("--data", required=True, help="scene directory")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-epoch progress lines")

    p = sub.add_parser("extract", help="write fused features for a scene")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="scene directory")
    p.add_argument("--out", required=True, help="output feature file")

    p = sub.add_parser("eval", help="classify stored features and report metrics")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", help="optional label raster overriding "
                                    "the labels stored with the features")
    p.add_argument("--train-frac", type=_fraction, default=0.05)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", help="write metrics as JSON to this path")

    p = sub.add_parser("baseline", help="metrics for raw / PCA / embedding features")
    p.add_argument("--data", required=True, help="scene directory")
    p.add_argument("--method", choices=["raw", "pca", "le"], default="raw")
    p.add_argument("--dim", type=_positive, default=32,
                   help="output dimension for pca/le")
    p.add_argument("--neighbors", type=_positive, default=10)
    p.add_argument("--train-frac", type=_fraction, default=0.05)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", help="write metrics as JSON to this path")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=_seed, nargs="+", default=[0])
    p.add_argument("--samples", type=_positive, default=8)
    p.add_argument("--tol", default=1e-4, type=_finite_nonnegative)
    return parser


def _score(args, feats: np.ndarray, labels: np.ndarray, prefix: str) -> int:
    """Split, probe, write the optional report and print the metric line."""
    rng = np.random.default_rng(args.seed)
    train_idx, test_idx = dataio.stratified_split(labels, args.train_frac, rng)
    result = evaluation.evaluate_split(feats, labels, train_idx, test_idx,
                                       seed=args.seed)
    if args.report:
        dataio.write_json(args.report, {**result,
                                        "confusion": result["confusion"].tolist(),
                                        "classes": result["classes"].tolist()})
    print(f"{prefix}oa={result['oa']:.6f} aa={result['aa']:.6f} "
          f"kappa={result['kappa']:.6f}")
    return 0


def _cmd_gen_synth(args) -> int:
    height, width = args.size
    rng = np.random.default_rng(args.seed)
    hsi, elevation, labels = dataio.gen_synthetic(height, width, args.classes,
                                                  args.bands, rng)
    dataio.write_scene(args.out, hsi, elevation, labels)
    print(f"scene={args.out} size={height}x{width} bands={args.bands} "
          f"classes={args.classes} labeled={int((labels > 0).sum())}")
    return 0


def _cmd_train(args) -> int:
    cfg = parse_config(args.config) if args.config else TrainConfig()
    # no name keeps the scene, so it is freed once patches are cut
    patches = dataio.extract_patches(*dataio.read_scene(args.data), cfg.b)
    rng = np.random.default_rng(cfg.seed)
    state = model.init_model(cfg, patches.hsi.shape[3], rng)
    os.makedirs(args.out, exist_ok=True)
    # line-buffered: the header and each epoch's row reach the file at once
    with open(os.path.join(args.out, "train_log.csv"), "w", newline="",
              buffering=1) as log:
        writer = csv.writer(log)
        writer.writerow(["epoch"] + [f.name for f in dataclasses.fields(LossReport)])

        def progress(row):
            writer.writerow(row.values())
            if not args.quiet:
                print(f"epoch={row['epoch']} total={row['total']:.6f} "
                      f"kl={row['kl']:.6f}")

        history = training.train(state, patches.hsi, patches.lidar, rng,
                                 progress=progress)
    model.save_checkpoint(state, args.out)
    if history:
        print(f"checkpoint={args.out} epochs={len(history)} "
              f"final_total={history[-1]['total']:.6f}")
    else:
        print(f"checkpoint={args.out} epochs=0")
    return 0


def _cmd_extract(args) -> int:
    state = model.load_checkpoint(args.model)
    patches = dataio.extract_patches(*dataio.read_scene(args.data), state.config.b)
    if patches.hsi.shape[3] != state.c_spec:
        raise ValueError(
            f"scene has {patches.hsi.shape[3]} bands but the checkpoint was "
            f"trained on {state.c_spec}"
        )
    feats = model.fused_features(state, patches.hsi, patches.lidar)
    dataio.write_features(args.out, patches.rows, patches.cols,
                          patches.labels, feats)
    print(f"features={args.out} n={feats.shape[0]} dim={feats.shape[1]}")
    return 0


def _cmd_eval(args) -> int:
    rows, cols, labels, feats = dataio.read_features(args.features)
    if args.labels:
        raster = dataio.read_dten(args.labels)
        if raster.ndim != 2:
            raise ValueError("label raster must be a 2-D tensor")
        raster = dataio._exact_int(raster, np.int32, f"{args.labels}: label raster")
        if rows.size:
            extent = (int(rows.max()) + 1, int(cols.max()) + 1)
            if extent[0] > raster.shape[0] or extent[1] > raster.shape[1]:
                raise ValueError(f"label raster has shape {raster.shape} but the "
                                 f"features need at least {extent}")
        labels = raster[rows, cols]
    labeled = labels > 0
    if not labeled.any():
        raise ValueError("no feature row has a label > 0")
    return _score(args, feats[labeled], labels[labeled], "")


def _cmd_baseline(args) -> int:
    # every baseline reads only the center pixel, so 1 x 1 patches suffice
    patches = dataio.extract_patches(*dataio.read_scene(args.data), 1)
    raw = evaluation.raw_patch_features(patches)
    if args.method == "raw":
        feats = raw
    elif args.method == "pca":
        feats = evaluation.pca(raw, args.dim)
    else:
        feats = evaluation.laplacian_eigenmaps(raw, args.dim,
                                               n_neighbors=args.neighbors)
    return _score(args, feats, patches.labels, f"method={args.method} ")


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    for seed in args.seed:
        max_rel = training.grad_check(seed=seed, n_samples=args.samples)
        print(f"seed={seed} max_rel_err={max_rel:.3e}")
        worst = max(worst, max_rel)
    if worst > args.tol:
        print(f"error: gradient check failed: {worst:.3e} > {args.tol:.1e}",
              file=sys.stderr)
        return 3
    print(f"gradcheck ok: {worst:.3e} <= {args.tol:.1e}")
    return 0


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "train": _cmd_train,
    "extract": _cmd_extract,
    "eval": _cmd_eval,
    "baseline": _cmd_baseline,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            print(parser.format_usage().rstrip(), file=sys.stderr)
            return 1
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {oom}{exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
