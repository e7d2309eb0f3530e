"""Per-pixel capsule lift: spectral patches -> point sets in feature space.

Every pixel's spectrum goes through one shared linear map, is split into G
groups of length d_cap, and each group is squashed. A b x b patch thus
becomes b*b points in G*d_cap dimensions, in row-major pixel order, so
point index p downstream always refers to pixel p of the patch.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, linear, reshape, squash_groups

__all__ = ["init_capsule_block", "extract_preliminary_batch"]


def fan_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_capsule_block(c_spec: int, g: int, d_cap: int, rng: np.random.Generator) -> dict:
    """Shared 1x1 linear map from c_spec bands into g squashed groups of d_cap."""
    d_h = g * d_cap
    return {
        "w": Tensor(fan_uniform(rng, c_spec, d_h, (c_spec, d_h))),
        "b": Tensor(np.zeros(d_h)),
    }


def extract_preliminary_batch(params: dict, patches: np.ndarray, g: int, d_cap: int) -> Tensor:
    """Batched pixel lift: (B, b, b, c_spec) patch array -> point sets
    (B, b*b, g*d_cap). The patches are data, not a graph node. The dtype
    follows the input under ``autodiff`` rules: float32 when the patches
    and parameters are float32, float64 otherwise."""
    patches = np.asarray(patches)
    if patches.ndim != 4:
        raise ValueError(
            f"patches must have shape (B, b, b, c_spec), got {patches.shape}"
        )
    bsz, b0, b1, c_spec = patches.shape
    if params["w"].data.shape[0] != c_spec:
        raise ValueError(
            f"patch has {c_spec} bands but the block was built for "
            f"{params['w'].data.shape[0]}"
        )
    x = reshape(patches, (bsz, b0 * b1, c_spec))
    lifted = linear(x, params["w"], params["b"])
    groups = reshape(lifted, (bsz, b0 * b1, g, d_cap))
    return reshape(squash_groups(groups), (bsz, b0 * b1, g * d_cap))

