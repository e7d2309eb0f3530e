"""Two-branch capsule autoencoder over paired spectral / elevation patches.

The spectral branch lifts each pixel of a b x b x C_spec patch into a
high-dimensional capsule point (grouped linear map + squash), so the
patch becomes a set of b*b points in G*d_cap dimensions. The elevation
branch represents the same patch as b*b points in 3-D (grid x, grid y,
standardized height). Each branch runs its own point-set encoder,
capsule aggregation and decoder; training couples them through a KL
term on the attention maps.

Both branches train under one recipe, after Canonical Capsules: one
routine (``_branch``) encodes a branch's point set twice, raw and under
a freshly sampled random rotation, and scores equivariance of the poses,
invariance of the descriptors and chamfer reconstruction.
``forward_batch`` runs it once per branch and adds cross-branch
attention agreement.

The extract path (``decompose_batch`` inside ``fused_features``) encodes
each branch once, under ``autodiff.no_grad``, and stops at the feature
maps: the fused features read only those, so it builds no graph and
runs no capsule aggregation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, matmul, no_grad
from .capsule_block import extract_preliminary_batch, init_capsule_block
from .config import TrainConfig
from .decoder import decode, init_decoder
from .encoder import aggregate, encode_batch, init_encoder
from .geometry import sample_rotations
from .losses import (
    LossReport,
    LossWeights,
    loss_equivariance,
    loss_invariance,
    loss_kl,
    reconstruction_loss,
)

__all__ = [
    "ModelState",
    "init_model",
    "parameters",
    "forward_batch",
    "decompose_batch",
    "fused_features",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_PARAMS = "params.dten"
CHECKPOINT_VERSION = 2


@dataclass
class ModelState:
    """All learnable parameter groups plus the config they were built for."""

    config: TrainConfig
    c_spec: int
    caps: dict
    enc_hsi: dict
    enc_lidar: dict
    dec_hsi: dict
    dec_lidar: dict


def init_model(cfg: TrainConfig, c_spec: int, rng: np.random.Generator) -> ModelState:
    cfg.validate()
    if c_spec < 1:
        raise ValueError("c_spec must be positive")
    d_h = cfg.d_h
    caps = init_capsule_block(c_spec, cfg.G, cfg.d_cap, rng)
    enc_hsi = init_encoder(d_h, cfg.H, cfg.n_blocks, cfg.K, cfg.C, rng)
    enc_lidar = init_encoder(3, cfg.H, cfg.n_blocks, cfg.K, cfg.C, rng)
    # the spectral decoder reconstructs raw pixel spectra, a different space
    # than the poses, so it is conditioned on concat(descriptor, pose); the
    # elevation decoder reconstructs in pose space and anchors on the pose
    dec_hsi = init_decoder(cfg.C, d_h, c_spec, cfg.m, cfg.H, rng, anchored=False)
    dec_lidar = init_decoder(cfg.C, 3, 3, cfg.m, cfg.H, rng, anchored=True)
    return ModelState(cfg, c_spec, caps, enc_hsi, enc_lidar, dec_hsi, dec_lidar)


def parameters(state: ModelState) -> dict:
    """Flat name -> Tensor view of every learnable parameter."""
    groups = [
        ("caps_hsi", state.caps),
        ("enc_hsi", state.enc_hsi),
        ("enc_lidar", state.enc_lidar),
        ("dec_hsi", state.dec_hsi),
        ("dec_lidar", state.dec_lidar),
    ]
    flat = {}
    for prefix, group in groups:
        for key, value in group.items():
            if isinstance(value, Tensor):
                flat[f"{prefix}.{key}"] = value
    return flat


def _branch(enc: dict, dec: dict, pts: Tensor, rot: np.ndarray, target: Tensor):
    """One branch's share of the training loss.

    Encodes and aggregates pts raw and rotated by rot (B, d, d), decodes
    the raw view and scores it against target. Returns (raw attention
    map, equivariance, invariance, chamfer).
    """
    pts_rot = matmul(pts, as_tensor(np.swapaxes(rot, -1, -2)))
    attn, feats = encode_batch(enc, pts)
    attn_rot, feats_rot = encode_batch(enc, pts_rot)
    poses, desc = aggregate(attn, feats, pts)
    poses_rot, desc_rot = aggregate(attn_rot, feats_rot, pts_rot)
    recon = decode(dec, poses, desc)
    return (attn, loss_equivariance(rot, poses, poses_rot),
            loss_invariance(desc, desc_rot), reconstruction_loss(target, recon))


def forward_batch(state: ModelState, hsi_patches: np.ndarray,
                  lidar_points: np.ndarray, rng: np.random.Generator,
                  weights: LossWeights | None = None):
    """Run both branches on a batch and assemble the training loss.

    hsi_patches: (B, b, b, C_spec); lidar_points: (B, b*b, 3). Returns
    (total loss Tensor, LossReport). One rotation per sample per branch
    is drawn from rng, spectral first.
    """
    cfg = state.config
    if weights is None:
        weights = LossWeights(cfg.alpha, cfg.beta, cfg.gamma)
    hsi_patches = np.asarray(hsi_patches, dtype=np.float64)
    n = hsi_patches.shape[0]
    if lidar_points.shape[0] != n:
        raise ValueError("spectral and elevation batches must have equal length")

    pts_h = extract_preliminary_batch(state.caps, hsi_patches, cfg.G, cfg.d_cap)
    pts_l = as_tensor(np.asarray(lidar_points, dtype=np.float64))
    # reconstruction target of the spectral branch: the raw pixel spectra
    # as a point set, NOT the lifted capsule points (which the model could
    # collapse to make reconstruction trivial)
    target_h = as_tensor(hsi_patches.reshape(n, -1, state.c_spec))
    rot_h = sample_rotations(cfg.d_h, n, rng)
    rot_l = sample_rotations(3, n, rng)

    attn_h, equ_h, inv_h, cham_h = _branch(state.enc_hsi, state.dec_hsi,
                                           pts_h, rot_h, target_h)
    attn_l, equ_l, inv_l, cham_l = _branch(state.enc_lidar, state.dec_lidar,
                                           pts_l, rot_l, pts_l)
    kl = loss_kl(attn_h, attn_l)
    total = (
        (equ_h + inv_h + cham_h) * weights.alpha
        + (equ_l + inv_l + cham_l) * weights.beta
        + kl * weights.gamma
    )
    terms = (equ_h, inv_h, cham_h, equ_l, inv_l, cham_l, kl, total)  # field order
    return total, LossReport(*(float(t.data) for t in terms))


def decompose_batch(state: ModelState, hsi_patches: np.ndarray,
                    lidar_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference pass: the (B, X, C) encoder feature maps of the spectral
    and the elevation branch, computed without building a graph."""
    with no_grad():
        pts_h = extract_preliminary_batch(state.caps, hsi_patches,
                                          state.config.G, state.config.d_cap)
        pts_l = as_tensor(np.asarray(lidar_points, dtype=np.float64))
        _, feats_h = encode_batch(state.enc_hsi, pts_h)
        _, feats_l = encode_batch(state.enc_lidar, pts_l)
    return feats_h.data, feats_l.data


def fused_features(state: ModelState, hsi_patches: np.ndarray,
                   lidar_points: np.ndarray, batch: int = 256) -> np.ndarray:
    """Per-patch fused feature vectors, (N, 4 * C).

    For each branch the center-pixel feature row and the mean feature row
    are taken from the encoder's feature map; the four pieces are
    concatenated spectral-first. Patches are encoded `batch` at a time.
    hsi_patches may be any (N, b, b, C) stack whose first axis takes a
    slice, such as an ndarray or the lazy `dataio.PatchStack`, which then
    gathers one batch of windows at a time.
    """
    from .evaluation import fuse_features

    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    n = hsi_patches.shape[0]
    if lidar_points.shape[0] != n:
        raise ValueError(
            f"hsi_patches has {n} patches but lidar_points has "
            f"{lidar_points.shape[0]}"
        )
    center = lidar_points.shape[1] // 2
    out = np.empty((n, 4 * state.config.C), dtype=np.float64)
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        feats_h, feats_l = decompose_batch(
            state, hsi_patches[start:stop], lidar_points[start:stop])
        out[start:stop] = fuse_features(feats_h, feats_l, center)
    return out


def save_checkpoint(state: ModelState, directory: str) -> None:
    """Write a checkpoint directory of two files.

    params.dten holds every parameter's values, concatenated in
    ``parameters(state)`` order as one (P,) float32 vector, so a reloaded
    model matches the trained one to single precision. manifest.json,
    written after it, holds the format, version 2, the config, c_spec and
    the ordered list of parameter names. Other files in the directory are
    left as they are.
    """
    from .dataio import write_dten, write_json

    os.makedirs(directory, exist_ok=True)
    flat = parameters(state)
    write_dten(os.path.join(directory, CHECKPOINT_PARAMS),
               np.concatenate([t.data.reshape(-1) for t in flat.values()],
                              dtype=np.float32))
    write_json(os.path.join(directory, CHECKPOINT_MANIFEST), {
        "format": "hdcaps-checkpoint",
        "version": CHECKPOINT_VERSION,
        "config": state.config.to_dict(),
        "c_spec": state.c_spec,
        "params": list(flat),
    })


def load_checkpoint(directory: str) -> ModelState:
    """Rebuild the model saved by save_checkpoint (version 2 only).

    The manifest's names must equal those of the model its config builds,
    in order, and params.dten must hold their total size; anything else
    raises a ValueError naming what is wrong.
    """
    from .dataio import read_dten

    path = os.path.join(directory, CHECKPOINT_MANIFEST)
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") != "hdcaps-checkpoint":
        raise ValueError(f"{path} is not a checkpoint manifest")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {manifest.get('version')!r} "
                         f"is not supported, expected {CHECKPOINT_VERSION}")
    c_spec = manifest["c_spec"]
    if type(c_spec) is not int:
        raise ValueError(f"{path}: c_spec must be an integer, got {c_spec!r}")
    cfg = TrainConfig.from_dict(manifest["config"])
    state = init_model(cfg, c_spec, np.random.default_rng(0))
    flat = parameters(state)
    if manifest["params"] != list(flat):
        raise ValueError(f"{path}: params must list this model's parameter "
                         f"names in order")
    params_path = os.path.join(directory, CHECKPOINT_PARAMS)
    vector = read_dten(params_path)
    sizes = [t.data.size for t in flat.values()]
    if vector.shape != (sum(sizes),):
        raise ValueError(f"{params_path} holds a vector of shape {vector.shape}, "
                         f"expected ({sum(sizes)},)")
    pieces = np.split(vector.astype(np.float64), np.cumsum(sizes)[:-1])
    for tensor, piece in zip(flat.values(), pieces):
        tensor.data = piece.reshape(tensor.data.shape)
    return state
