"""Self-supervision losses for the two-branch capsule autoencoder.

Per branch, one random rotation is drawn per forward pass and the same
point set is encoded twice, raw and rotated. Three terms supervise the
decomposition:

  * equivariance: rotating the input must rotate the capsule poses,
    mean_k ||R pose_k - pose_k^rot||^2
  * invariance: descriptors must not move under rotation,
    mean_k ||desc_k - desc_k^rot||^2
  * reconstruction: symmetric chamfer distance between the branch's
    target point set, which is data and gets no gradient, and the
    decoded one.

Across branches, a KL term pulls the LiDAR attention map toward the
spectral one so both branches segment the patch the same way:
(1/X) sum_p KL(A_hsi[p] || A_lidar[p]), with both maps clamped at 1e-8
and renormalized before the log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .autodiff import Tensor, _op, as_tensor, clip_min, div, log, matmul, tmean, tsum

__all__ = [
    "LossWeights",
    "LossReport",
    "loss_equivariance",
    "loss_invariance",
    "loss_kl",
    "reconstruction_loss",
]

KL_EPS = 1e-8


@dataclass
class LossWeights:
    """Mixing coefficients: total = alpha * spectral + beta * lidar + gamma * kl,
    taken from ``TrainConfig``'s alpha, beta and gamma, which hold the defaults."""

    alpha: float
    beta: float
    gamma: float


@dataclass
class LossReport:
    """Scalar values of every loss term from one forward pass."""

    equ_hsi: float
    inv_hsi: float
    cham_hsi: float
    equ_lidar: float
    inv_lidar: float
    cham_lidar: float
    kl: float
    total: float


def _mean_sq_rows(diff: Tensor) -> Tensor:
    """Mean over capsules (and batch) of the squared row norms of diff."""
    sq = tsum(diff * diff, axis=-1)
    return tmean(tmean(sq, axis=-1))


def loss_equivariance(rot: np.ndarray, poses: Tensor, rotated_poses: Tensor) -> Tensor:
    """mean_k ||rot @ pose_k - rotated_pose_k||^2, averaged over the batch.

    rot is a (B, D, D) constant; gradients flow into both (B, K, D) pose
    sets.
    """
    rot_t = as_tensor(np.swapaxes(rot, -1, -2))
    return _mean_sq_rows(matmul(poses, rot_t) - rotated_poses)


def loss_invariance(descriptors: Tensor, rotated_descriptors: Tensor) -> Tensor:
    """mean_k ||desc_k - rotated_desc_k||^2, averaged over the batch."""
    return _mean_sq_rows(descriptors - rotated_descriptors)


def _renorm(attn: Tensor) -> Tensor:
    clipped = clip_min(attn, KL_EPS)
    return div(clipped, tsum(clipped, axis=-1, keepdims=True))


def loss_kl(attn_from: Tensor, attn_to: Tensor) -> Tensor:
    """Per-point KL divergence KL(attn_from || attn_to) averaged over
    points (and batch). Rows are clamped at 1e-8 and renormalized so the
    log stays finite; gradients flow into both maps."""
    p = _renorm(attn_from)
    q = _renorm(attn_to)
    per_point = tsum(p * (log(p) - log(q)), axis=-1)
    return tmean(tmean(per_point, axis=-1))


def reconstruction_loss(target: np.ndarray, recon: Tensor) -> Tensor:
    """Symmetric chamfer distance between the target points and the
    reconstructed ones, (B, n, D) x (B, m, D) -> scalar, averaged over the
    batch.

    The target is data, taken in recon's dtype, so the gradient flows
    into recon only. The nearest-neighbor assignment is treated as locally
    constant, which is the exact gradient away from ties.
    """
    target = np.asarray(target, dtype=recon.data.dtype)
    if target.ndim != 3 or recon.data.ndim != 3:
        raise ValueError("reconstruction_loss expects (B, n, D) tensors")
    if (target.shape[0] != recon.data.shape[0]
            or target.shape[2] != recon.data.shape[2]):
        raise ValueError("batch or dimension mismatch in reconstruction_loss")
    if target.shape[1] == 0 or recon.data.shape[1] == 0:
        raise ValueError("chamfer distance of an empty point set is undefined")
    vals, nn_pq, nn_qp = kernels.chamfer_forward(target, recon.data)
    return tmean(_op(vals, (recon,), lambda g: kernels.chamfer_backward(
        target, recon.data, nn_pq, nn_qp, g)))
