"""Per-pixel capsule lift: spectral patches -> point sets in feature space.

Every pixel's spectrum goes through one shared linear map, is split into G
groups of length d_cap, and each group is squashed. A b x b patch thus
becomes b*b points in G*d_cap dimensions, in row-major pixel order, so
point index p downstream always refers to pixel p of the patch.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, as_tensor, linear, reshape, squash_groups

__all__ = ["init_capsule_block", "squash", "extract_preliminary", "extract_preliminary_batch"]


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


def squash(v):
    """Norm-squashing nonlinearity; keeps direction, maps |v| into (0, 1).

    v -> (|v|^2 / (1 + |v|^2)) * v / (|v| + 1e-8), applied along the last
    axis. Accepts an ndarray (returns ndarray) or a Tensor (returns Tensor).
    """
    if isinstance(v, Tensor):
        return squash_groups(v)
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("squash input must be finite")
    return squash_groups(as_tensor(v)).data


def extract_preliminary_batch(params: dict, patches: Tensor, g: int, d_cap: int) -> Tensor:
    """Batched pixel lift: (B, b, b, c_spec) -> point sets (B, b*b, g*d_cap)."""
    bsz, b0, b1, c_spec = patches.data.shape
    if params["w"].data.shape[0] != c_spec:
        raise ValueError(
            f"patch has {c_spec} bands but the block was built for "
            f"{params['w'].data.shape[0]}"
        )
    x = reshape(patches, (bsz, b0 * b1, c_spec))
    lifted = linear(x, params["w"], params["b"])
    groups = reshape(lifted, (bsz, b0 * b1, g, d_cap))
    return reshape(squash_groups(groups), (bsz, b0 * b1, g * d_cap))


def extract_preliminary(params: dict, patch, g: int, d_cap: int):
    """Lift one b x b x c_spec patch to a point set of b*b rows.

    Row-major pixel order is preserved; returns the same kind (array or
    Tensor) as the input patch.
    """
    is_tensor = isinstance(patch, Tensor)
    t = patch if is_tensor else as_tensor(np.asarray(patch, dtype=np.float64))
    if t.data.ndim != 3:
        raise ValueError("patch must have shape (b, b, c_spec)")
    if not is_tensor and not np.all(np.isfinite(t.data)):
        raise ValueError("patch entries must be finite")
    out = extract_preliminary_batch(params, reshape(t, (1,) + t.data.shape), g, d_cap)
    out = reshape(out, out.data.shape[1:])
    return out if is_tensor else out.data
