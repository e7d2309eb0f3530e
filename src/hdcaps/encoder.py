"""Permutation-equivariant point-set encoder and capsule aggregation.

The encoder lifts each point to a hidden width H, then runs residual
blocks of the form

    weight = softmax over the points of (h @ att_w)
    z      = acn(h, weight)
    h      = h + relu(z @ lin_w + lin_b)

where ``acn`` subtracts the weighted mean of each channel and divides by
sqrt(weighted variance + 1e-5). Features are thus standardized with
attention-weighted moments computed across the point set, which is what
makes the blocks mix information between points while staying
order-equivariant. The attention logits
carry no bias (a shared offset cannot survive the softmax over points)
and the linear map sits after the normalization so its bias is not
cancelled by the mean subtraction. ``encode_batch`` returns the final
hidden map h, and two heads read it: ``feature_map`` applies the linear
feature head, F = h W_f + b_f, and ``attention_map`` turns h into the
attention map A (rows softmaxed over the K capsules, so each point
carries a distribution over capsules). Training needs both heads on
every point; the extract path, described in the ``model`` module
docstring, applies only ``feature_map``.

Aggregation turns (A, F, P) into capsule poses (attention-weighted point
centroids, rotation-equivariant) and descriptors (attention-weighted
feature means, rotation-invariant).

Each dense layer, each ACN and each of the two aggregation means is a
single autodiff node (``linear``, ``acn``, ``weighted_mean``) with a
closed-form backward, so a block is six nodes: two ``linear``, the
softmax, ``acn``, the relu and the residual add.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, acn, linear, relu, softmax, weighted_mean
from .capsule_block import fan_uniform

__all__ = ["init_encoder", "encode_batch", "feature_map", "attention_map", "aggregate"]

ACN_EPS = 1e-5
AGG_EPS = 1e-8


def init_encoder(d_in: int, h: int, n_blocks: int, k: int, c: int,
                 rng: np.random.Generator) -> dict:
    params = {
        "lift_w": Tensor(fan_uniform(rng, d_in, h)),
        "lift_b": Tensor(np.zeros(h)),
    }
    for i in range(n_blocks):
        # the attention logits carry no bias: softmax over the points axis
        # is shift-invariant, so a shared offset could never train
        params[f"b{i}_att_w"] = Tensor(fan_uniform(rng, h, 1))
        params[f"b{i}_lin_w"] = Tensor(fan_uniform(rng, h, h))
        params[f"b{i}_lin_b"] = Tensor(np.zeros(h))
    params["att_w"] = Tensor(fan_uniform(rng, h, k))
    params["att_b"] = Tensor(np.zeros(k))
    params["feat_w"] = Tensor(fan_uniform(rng, h, c))
    params["feat_b"] = Tensor(np.zeros(c))
    params["n_blocks"] = n_blocks
    return params


def encode_batch(params: dict, points: Tensor) -> Tensor:
    """(B, X, D) point sets, D the encoder's d_in -> hidden maps (B, X, H)."""
    h = linear(points, params["lift_w"], params["lift_b"])
    for i in range(params["n_blocks"]):
        weights = softmax(linear(h, params[f"b{i}_att_w"]), axis=-2)
        z = acn(h, weights, ACN_EPS)
        h = h + relu(linear(z, params[f"b{i}_lin_w"], params[f"b{i}_lin_b"]))
    return h


def feature_map(params: dict, hidden: Tensor) -> Tensor:
    """(..., H) hidden rows from ``encode_batch`` -> feature rows (..., C)."""
    return linear(hidden, params["feat_w"], params["feat_b"])


def attention_map(params: dict, hidden: Tensor) -> Tensor:
    """(B, X, H) hidden maps from ``encode_batch`` -> attention maps (B, X, K)."""
    return softmax(linear(hidden, params["att_w"], params["att_b"]), axis=-1)


def aggregate(attn: Tensor, feats: Tensor, points: Tensor) -> tuple[Tensor, Tensor]:
    """Capsule poses and descriptors from attention-weighted means.

    pose_k = sum_p A[p,k] P[p] / sum_p A[p,k] and likewise for the
    descriptors over F; the denominator carries a 1e-8 guard. Takes
    batched (B, X, K) / (B, X, C) / (B, X, D) Tensors.
    """
    return weighted_mean(attn, points, AGG_EPS), weighted_mean(attn, feats, AGG_EPS)
