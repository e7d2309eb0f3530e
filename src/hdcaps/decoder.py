"""Capsule-conditioned point decoders.

Each capsule contributes m reconstructed points through a small MLP
(input -> hidden -> m * d_out) shared across capsules. Two conditioning
modes exist, chosen at init:

  * anchored (the elevation branch): the MLP reads the descriptor and
    emits offsets that are translated by the capsule pose, so the pose
    carries the cluster and the descriptor shapes it. Requires the pose
    dimension to equal d_out.
  * conditioned (the spectral branch): the output space (raw spectra,
    R^C_spec) differs from the pose space, so no translation is
    possible; the MLP reads concat(descriptor, pose) and emits the
    points directly.

Concatenating the clusters of all K capsules yields (K * m, d_out)
points, scored against the branch's reconstruction target with the
chamfer distance.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, linear, relu, reshape
from .capsule_block import fan_uniform

__all__ = ["init_decoder", "decode"]


def init_decoder(c: int, pose_dim: int, d_out: int, m: int, h: int,
                 rng: np.random.Generator, anchored: bool) -> dict:
    """Build decoder parameters.

    c: descriptor length; pose_dim: pose length; d_out: output point
    dimension; m: points per capsule; h: hidden width. anchored mode
    requires pose_dim == d_out.
    """
    d_in = c if anchored else c + pose_dim
    return {
        "w1": Tensor(fan_uniform(rng, d_in, h)),
        "b1": Tensor(np.zeros(h)),
        "w2": Tensor(fan_uniform(rng, h, m * d_out)),
        "b2": Tensor(np.zeros(m * d_out)),
        "m": m,
        "d_out": d_out,
        "anchored": anchored,
    }


def decode(params: dict, poses: Tensor, descriptors: Tensor) -> Tensor:
    """Reconstruct (..., K*m, d_out) points from poses (..., K, D) and
    descriptors (..., K, C)."""
    m, d_out = params["m"], params["d_out"]
    lead = descriptors.data.shape[:-1]  # (..., K)
    x = descriptors if params["anchored"] else concat([descriptors, poses], axis=-1)
    hidden = relu(linear(x, params["w1"], params["b1"]))
    out = linear(hidden, params["w2"], params["b2"])
    out = reshape(out, lead + (m, d_out))
    if params["anchored"]:
        out = out + reshape(poses, lead + (1, d_out))
    return reshape(out, lead[:-1] + (lead[-1] * m, d_out))
