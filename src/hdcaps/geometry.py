"""Rotation sampling on SO(D) and the batched chamfer distance.

These are the shared geometric primitives of both branches: the rotated
second view is produced by a Haar-distributed rotation of the input point
set, and reconstructions are scored with a symmetric mean-of-squared
nearest-neighbor chamfer distance.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .autodiff import Tensor, _accum, _attach, tmean

__all__ = ["sample_rotations", "chamfer_batch"]


def sample_rotations(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` independent SO(dim) samples as a (count, dim, dim) stack.

    QR of standard Gaussian matrices, columns sign-fixed by the diagonal
    of R; where the determinant lands at -1 the last column is negated.
    """
    if dim < 1:
        raise ValueError("rotation dimension must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    a = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    q = q * signs[..., None, :]
    neg = np.linalg.det(q) < 0.0
    q[neg, :, -1] = -q[neg, :, -1]
    return q


def chamfer_batch(p: Tensor, q: Tensor) -> Tensor:
    """Differentiable batched chamfer: (B,n,D) x (B,m,D) -> scalar mean over B.

    The nearest-neighbor assignment is treated as locally constant, which
    is the exact gradient away from ties.
    """
    if p.data.ndim != 3 or q.data.ndim != 3:
        raise ValueError("chamfer_batch expects (B, n, D) tensors")
    if p.data.shape[0] != q.data.shape[0] or p.data.shape[2] != q.data.shape[2]:
        raise ValueError("batch or dimension mismatch in chamfer_batch")
    if p.data.shape[1] == 0 or q.data.shape[1] == 0:
        raise ValueError("chamfer distance of an empty point set is undefined")
    vals, nn_pq, nn_qp = kernels.chamfer_forward(p.data, q.data)
    out = Tensor(vals, (p, q))

    def bw():
        gp, gq = kernels.chamfer_backward(p.data, q.data, nn_pq, nn_qp, out.grad,
                                          need_p=not p._const, need_q=not q._const)
        _accum(p, gp)
        _accum(q, gq)

    return tmean(_attach(out, bw))
