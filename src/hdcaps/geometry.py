"""Rotation sampling on SO(D).

Both branches draw their rotated second view from here: a
Haar-distributed rotation of the input point set.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_rotations"]


def sample_rotations(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` independent SO(dim) samples as a (count, dim, dim) stack.

    QR of standard Gaussian matrices, columns sign-fixed by the diagonal
    of R; where the determinant lands at -1 the last column is negated.
    """
    a = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    q = q * signs[..., None, :]
    neg = np.linalg.det(q) < 0.0
    q[neg, :, -1] = -q[neg, :, -1]
    return q
