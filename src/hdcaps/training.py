"""Training loop, Adam optimizer and finite-difference gradient checking.

Everything is driven by a single seeded Generator so a given (data,
config, seed) triple reproduces the same parameter trajectory exactly:
the generator is consumed in a fixed order (init, then per-step
rotations, then per-epoch shuffles).

Training runs in the parameters' dtype, float32, and so do the Adam
moments; ``grad_check`` widens its own model to float64.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import backward
from .config import TrainConfig
from .errors import DivergenceError
from .losses import LossReport, LossWeights
from .model import ModelState, forward_batch, init_model, parameters

__all__ = ["AdamState", "adam_step", "zero_grads", "train_step", "train", "grad_check"]


@dataclass
class AdamState:
    """First/second moment accumulators keyed by parameter name."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def zero_grads(params: dict) -> None:
    for tensor in params.values():
        tensor.grad = None


def adam_step(params: dict, opt: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam update over every parameter that received a gradient."""
    opt.t += 1
    t = opt.t
    for name, tensor in params.items():
        g = tensor.grad
        if g is None:
            continue
        if name not in opt.m:
            opt.m[name] = np.zeros_like(tensor.data)
            opt.v[name] = np.zeros_like(tensor.data)
        m = opt.m[name]
        v = opt.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def train_step(state: ModelState, opt: AdamState, params: dict,
               hsi_batch: np.ndarray, lidar_batch: np.ndarray,
               rng: np.random.Generator, weights: LossWeights,
               epoch: int | None = None, step: int | None = None):
    """Forward, backward, Adam update. Returns the LossReport.

    A non-finite loss or gradient raises a DivergenceError that names
    the tensor and the given epoch and step.
    """
    zero_grads(params)
    total, report = forward_batch(state, hsi_batch, lidar_batch, rng, weights)
    if not np.isfinite(report.total):
        raise DivergenceError("total loss", "training loss is not finite",
                              epoch, step)
    backward(total)
    for name, tensor in params.items():
        if tensor.grad is not None and not np.all(np.isfinite(tensor.grad)):
            raise DivergenceError(name, "gradient is not finite", epoch, step)
    cfg = state.config
    adam_step(params, opt, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    return report


def train(state: ModelState, hsi_patches: np.ndarray, lidar_points: np.ndarray,
          rng: np.random.Generator, log_path: str | None = None,
          progress=None) -> list[dict]:
    """Train for config.epochs epochs of shuffled minibatches.

    Returns one dict of mean loss components per epoch; optionally
    appends the same rows to a CSV file at log_path. A divergence raises
    a DivergenceError naming the epoch and the step within it, both
    counted from 0 as in the log's epoch column. hsi_patches may be
    any (N, b, b, C) stack whose first axis takes an integer index array,
    such as an ndarray or the lazy `dataio.PatchStack`, which then
    gathers one minibatch of windows at a time.
    """
    cfg = state.config
    n = hsi_patches.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty patch set")
    if lidar_points.shape[0] != n:
        raise ValueError("spectral and elevation patch counts differ")
    params = parameters(state)
    opt = AdamState()
    weights = LossWeights(cfg.alpha, cfg.beta, cfg.gamma)
    columns = ["epoch"] + [f.name for f in fields(LossReport)]
    history = []
    log_fh = open(log_path, "w", newline="") if log_path else None
    try:
        writer = None
        if log_fh is not None:
            writer = csv.DictWriter(log_fh, fieldnames=columns)
            writer.writeheader()
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            sums = {k: 0.0 for k in columns[1:]}
            n_batches = 0
            for start in range(0, n, cfg.batch):
                idx = order[start:start + cfg.batch]
                report = train_step(
                    state, opt, params,
                    hsi_patches[idx], lidar_points[idx], rng, weights,
                    epoch=epoch, step=n_batches,
                )
                for key, value in asdict(report).items():
                    sums[key] += value
                n_batches += 1
            row = {"epoch": epoch}
            row.update({k: sums[k] / n_batches for k in sums})
            history.append(row)
            if writer is not None:
                writer.writerow(row)
                log_fh.flush()
            if progress is not None:
                progress(row)
        return history
    finally:
        if log_fh is not None:
            log_fh.close()


def grad_check(seed: int = 0, n_samples: int = 8) -> float:
    """Compare analytic gradients against central finite differences.

    Builds a small two-branch model and widens its parameters to float64,
    so the whole check runs in float64 and its errors measure the
    gradients, not float32 roundoff. It runs one forward/backward on a
    random batch, then for n_samples randomly chosen entries of every
    parameter tensor recomputes the derivative as
    (f(x + h) - f(x - h)) / (2 h) and reports the relative error
    |g_a - g_n| / max(1e-8, |g_a| + |g_n|).

    Returns the largest relative error. The rotations inside the loss are
    re-seeded per evaluation so every call sees the same function.
    """
    cfg = TrainConfig(K=3, C=6, b=3, H=16, n_blocks=2, m=2, G=4, d_cap=4,
                      batch=2, epochs=1)
    c_spec, h = 5, 1e-5
    rng = np.random.default_rng(seed)
    state = init_model(cfg, c_spec, rng)
    params = parameters(state)
    for tensor in params.values():
        tensor.data = tensor.data.astype(np.float64)

    x = cfg.b * cfg.b
    hsi = rng.standard_normal((cfg.batch, cfg.b, cfg.b, c_spec))
    lidar = rng.standard_normal((cfg.batch, x, 3))
    weights = LossWeights(cfg.alpha, cfg.beta, cfg.gamma)
    rot_seed = seed + 1

    def eval_loss() -> float:
        total, _ = forward_batch(
            state, hsi, lidar, np.random.default_rng(rot_seed), weights
        )
        return float(total.data)

    zero_grads(params)
    total, _ = forward_batch(
        state, hsi, lidar, np.random.default_rng(rot_seed), weights
    )
    backward(total)

    max_rel = 0.0
    for tensor in params.values():
        size = tensor.data.size
        k = min(n_samples, size)
        picks = rng.choice(size, size=k, replace=False)
        grad_flat = (tensor.grad if tensor.grad is not None
                     else np.zeros_like(tensor.data)).reshape(-1)
        for idx in picks:
            where = np.unravel_index(idx, tensor.data.shape)
            keep = tensor.data[where]
            tensor.data[where] = keep + h
            f_plus = eval_loss()
            tensor.data[where] = keep - h
            f_minus = eval_loss()
            tensor.data[where] = keep
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(grad_flat[idx])
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            max_rel = max(max_rel, rel)
    return max_rel
