"""Per-pixel capsule lift: pixel spectra -> points in feature space.

Every pixel's spectrum goes through one shared linear map, is split into G
groups of length d_cap, and each group is squashed, giving one point in
G*d_cap dimensions. The lift takes any leading shape: training passes a
batch's (B, b*b, C_spec) patch pixels in row-major order, so point index
p downstream always refers to pixel p of the patch.

The lift is per pixel: a pixel's point depends on its own spectrum
only, not on the patch around it. Lifting each pixel of a scene once
and cutting windows from the result is therefore exact, and is what
``model.fused_features`` does.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, linear, reshape, squash_groups

__all__ = ["init_capsule_block", "extract_preliminary_batch"]


def fan_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """A (fan_in, fan_out) Glorot-uniform weight matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_capsule_block(c_spec: int, g: int, d_cap: int, rng: np.random.Generator) -> dict:
    """Shared 1x1 linear map from c_spec bands into g squashed groups of d_cap."""
    d_h = g * d_cap
    return {
        "w": Tensor(fan_uniform(rng, c_spec, d_h)),
        "b": Tensor(np.zeros(d_h)),
    }


def extract_preliminary_batch(params: dict, pixels: np.ndarray, g: int, d_cap: int) -> Tensor:
    """Batched pixel lift: (..., c_spec) spectra -> (..., g*d_cap) points.
    The pixels are data, not a graph node. The dtype follows the input
    under ``autodiff`` rules: float32 when the pixels and parameters are
    float32, float64 otherwise."""
    pixels = np.asarray(pixels)
    groups = reshape(linear(pixels, params["w"], params["b"]),
                     pixels.shape[:-1] + (g, d_cap))
    return reshape(squash_groups(groups), pixels.shape[:-1] + (g * d_cap,))
