"""Training loop, Adam optimizer and finite-difference gradient checking.

Everything is driven by a single seeded Generator so a given (data,
config, seed) triple reproduces the same parameter trajectory exactly:
the generator is consumed in a fixed order: init, then for each epoch
one shuffle followed by the rotations of each of its steps.

Training runs in float32: Adam updates the parameter vector
(``ModelState.vector``) in place, with float32 moment vectors of the same
length. ``grad_check`` widens its own model's vector to float64.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .autodiff import backward
from .config import TrainConfig
from .errors import DivergenceError
from .losses import LossReport, LossWeights
from .model import ModelState, bind_vector, forward_batch, init_model, parameters

__all__ = ["AdamState", "adam_step", "zero_grads", "train_step", "train", "grad_check"]


@dataclass
class AdamState:
    """Moment vectors m and v of the parameter vector, made by the first
    ``adam_step``, and the step count t."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def zero_grads(params: dict) -> None:
    for tensor in params.values():
        tensor.grad = None


def adam_step(vector: np.ndarray, grad: np.ndarray, opt: AdamState, lr: float,
              beta1: float, beta2: float, eps: float) -> None:
    """One Adam update of vector (P,), in place, from its gradient grad (P,).
    lr, beta1, beta2 and eps come from ``TrainConfig``, which holds the defaults."""
    if opt.m is None:
        opt.m, opt.v = np.zeros_like(vector), np.zeros_like(vector)
    opt.t += 1
    t, m, v = opt.t, opt.m, opt.v
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    vector -= lr * m_hat / (np.sqrt(v_hat) + eps)


def train_step(state: ModelState, opt: AdamState, params: dict,
               hsi_batch: np.ndarray, lidar_batch: np.ndarray,
               rng: np.random.Generator, weights: LossWeights,
               epoch: int | None = None, step: int | None = None):
    """Forward, backward, Adam update of ``state.vector``. Returns the
    LossReport. params must be ``parameters(state)``, in its order.

    A non-finite loss or gradient raises a DivergenceError that names
    the tensor and the given epoch and step. A parameter that received
    no gradient raises a RuntimeError naming it; either error leaves the
    parameters and opt unchanged.
    """
    zero_grads(params)
    total, report = forward_batch(state, hsi_batch, lidar_batch, rng, weights)
    if not np.isfinite(report.total):
        raise DivergenceError("total loss", "training loss is not finite",
                              epoch, step)
    backward(total)
    for name, tensor in params.items():
        if tensor.grad is None:
            raise RuntimeError(f"parameter {name} received no gradient")
    grad = np.concatenate([t.grad.reshape(-1) for t in params.values()])
    if not np.isfinite(grad).all():
        # one check per step; only a failed one looks for the parameter
        name = next(name for name, tensor in params.items()
                    if not np.isfinite(tensor.grad).all())
        raise DivergenceError(name, "gradient is not finite", epoch, step)
    cfg = state.config
    adam_step(state.vector, grad, opt, cfg.lr, cfg.adam_beta1, cfg.adam_beta2,
              cfg.adam_eps)
    return report


def train(state: ModelState, hsi_patches: np.ndarray, lidar_points: np.ndarray,
          rng: np.random.Generator, progress=None) -> list[dict]:
    """Train for config.epochs epochs of shuffled minibatches.

    Returns one dict of mean loss components per epoch, keyed "epoch"
    then the `LossReport` fields in order; progress, if given, is called
    with each epoch's dict as soon as the epoch ends. A divergence raises
    a DivergenceError naming the epoch and the step within it, both
    counted from 0 as in the "epoch" key. hsi_patches may be
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
    names = [f.name for f in fields(LossReport)]
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = np.zeros(len(names))
        n_batches = 0
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            report = train_step(state, opt, params, hsi_patches[idx],
                                lidar_points[idx], rng, weights,
                                epoch=epoch, step=n_batches)
            sums += astuple(report)
            n_batches += 1
        row = {"epoch": epoch, **dict(zip(names, (sums / n_batches).tolist()))}
        history.append(row)
        if progress is not None:
            progress(row)
    return history


def grad_check(seed: int = 0, n_samples: int = 8) -> float:
    """Compare analytic gradients against central finite differences.

    Builds a small two-branch model and widens its parameter vector to
    float64, so the whole check runs in float64 and its errors measure the
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
    bind_vector(state, np.float64)
    params = parameters(state)

    hsi = rng.standard_normal((cfg.batch, cfg.b, cfg.b, c_spec))
    lidar = rng.standard_normal((cfg.batch, cfg.b * cfg.b, 3))
    weights = LossWeights(cfg.alpha, cfg.beta, cfg.gamma)

    def loss():
        return forward_batch(state, hsi, lidar, np.random.default_rng(seed + 1),
                             weights)[0]

    backward(loss())
    max_rel = 0.0
    for tensor in params.values():
        flat = tensor.data.reshape(-1)  # a view: writes reach the model
        for idx in rng.choice(flat.size, size=min(n_samples, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + h
            f_plus = float(loss().data)
            flat[idx] = keep - h
            f_minus = float(loss().data)
            flat[idx] = keep
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(tensor.grad.reshape(-1)[idx])
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            max_rel = max(max_rel, rel)
    return max_rel
