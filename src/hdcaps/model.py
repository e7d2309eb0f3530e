"""Two-branch capsule autoencoder over paired spectral / elevation patches.

The spectral branch lifts each pixel of a b x b x C_spec patch into a
high-dimensional capsule point (grouped linear map + squash), so the
patch becomes a set of b*b points in G*d_cap dimensions. The elevation
branch represents the same patch as b*b points in 3-D (grid x, grid y,
standardized height). Each branch runs its own point-set encoder,
capsule aggregation and decoder; training couples them through a KL
term on the attention maps.

One forward pass encodes each branch twice, raw and under a freshly
sampled random rotation, and scores equivariance of the poses,
invariance of the descriptors, chamfer reconstruction, and cross-branch
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


def _branch_points_hsi(state: ModelState, patches: np.ndarray) -> Tensor:
    return extract_preliminary_batch(
        state.caps, patches, state.config.G, state.config.d_cap
    )


def forward_batch(state: ModelState, hsi_patches: np.ndarray,
                  lidar_points: np.ndarray, rng: np.random.Generator,
                  weights: LossWeights | None = None):
    """Run both branches on a batch and assemble the training loss.

    hsi_patches: (B, b, b, C_spec); lidar_points: (B, b*b, 3). Returns
    (total loss Tensor, LossReport). One rotation per sample per branch
    is drawn from rng.
    """
    if weights is None:
        weights = LossWeights(state.config.alpha, state.config.beta, state.config.gamma)
    hsi_patches = np.asarray(hsi_patches, dtype=np.float64)
    n = hsi_patches.shape[0]
    if lidar_points.shape[0] != n:
        raise ValueError("spectral and elevation batches must have equal length")

    pts_h = _branch_points_hsi(state, hsi_patches)
    pts_l = as_tensor(np.asarray(lidar_points, dtype=np.float64))
    # reconstruction target of the spectral branch: the raw pixel spectra
    # as a point set, NOT the lifted capsule points (which the model could
    # collapse to make reconstruction trivial)
    x = hsi_patches.shape[1] * hsi_patches.shape[2]
    target_h = as_tensor(hsi_patches.reshape(n, x, state.c_spec))

    rot_h = sample_rotations(state.config.d_h, n, rng)
    rot_l = sample_rotations(3, n, rng)
    pts_h_rot = matmul(pts_h, as_tensor(np.swapaxes(rot_h, -1, -2)))
    pts_l_rot = as_tensor(np.matmul(pts_l.data, np.swapaxes(rot_l, -1, -2)))

    attn_h, feats_h = encode_batch(state.enc_hsi, pts_h)
    attn_he, feats_he = encode_batch(state.enc_hsi, pts_h_rot)
    attn_l, feats_l = encode_batch(state.enc_lidar, pts_l)
    attn_le, feats_le = encode_batch(state.enc_lidar, pts_l_rot)

    poses_h, desc_h = aggregate(attn_h, feats_h, pts_h)
    poses_he, desc_he = aggregate(attn_he, feats_he, pts_h_rot)
    poses_l, desc_l = aggregate(attn_l, feats_l, pts_l)
    poses_le, desc_le = aggregate(attn_le, feats_le, pts_l_rot)

    recon_h = decode(state.dec_hsi, poses_h, desc_h)
    recon_l = decode(state.dec_lidar, poses_l, desc_l)

    equ_h = loss_equivariance(rot_h, poses_h, poses_he)
    inv_h = loss_invariance(desc_h, desc_he)
    cham_h = reconstruction_loss(target_h, recon_h)
    equ_l = loss_equivariance(rot_l, poses_l, poses_le)
    inv_l = loss_invariance(desc_l, desc_le)
    cham_l = reconstruction_loss(pts_l, recon_l)
    kl = loss_kl(attn_h, attn_l)

    total = (
        (equ_h + inv_h + cham_h) * weights.alpha
        + (equ_l + inv_l + cham_l) * weights.beta
        + kl * weights.gamma
    )
    report = LossReport(
        equ_hsi=float(equ_h.data),
        inv_hsi=float(inv_h.data),
        cham_hsi=float(cham_h.data),
        equ_lidar=float(equ_l.data),
        inv_lidar=float(inv_l.data),
        cham_lidar=float(cham_l.data),
        kl=float(kl.data),
        total=float(total.data),
    )
    return total, report


def decompose_batch(state: ModelState, hsi_patches: np.ndarray,
                    lidar_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference pass: the (B, X, C) encoder feature maps of the spectral
    and the elevation branch, computed without building a graph."""
    with no_grad():
        pts_h = _branch_points_hsi(state, hsi_patches)
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


def _listed_files(directory: str) -> set:
    """Parameter file names listed by the manifest in directory, if any."""
    try:
        with open(os.path.join(directory, CHECKPOINT_MANIFEST)) as fh:
            listed = json.load(fh).get("params", {}).values()
    except (OSError, ValueError, AttributeError):
        return set()
    return {fname for fname in listed if isinstance(fname, str)}


def save_checkpoint(state: ModelState, directory: str) -> None:
    """Write one tensor file per parameter plus a JSON manifest.

    Parameters are stored in 32-bit floats, so a reloaded model matches
    the trained one to single precision. Once the new manifest is in
    place, tensor files that only the replaced manifest listed are
    deleted.
    """
    from .dataio import write_dten

    os.makedirs(directory, exist_ok=True)
    old_files = _listed_files(directory)
    flat = parameters(state)
    entries = {}
    for name, tensor in flat.items():
        fname = name + ".dten"
        write_dten(os.path.join(directory, fname), tensor.data.astype(np.float32))
        entries[name] = fname
    manifest = {
        "format": "hdcaps-checkpoint",
        "version": 1,
        "config": state.config.to_dict(),
        "c_spec": state.c_spec,
        "params": entries,
    }
    tmp = os.path.join(directory, CHECKPOINT_MANIFEST + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(directory, CHECKPOINT_MANIFEST))
    # the old manifest is outside input: only plain *.dten names are removed
    for fname in old_files - set(entries.values()):
        path = os.path.join(directory, fname)
        if (fname.endswith(".dten") and os.path.basename(fname) == fname
                and os.path.isfile(path)):
            os.remove(path)


def load_checkpoint(directory: str) -> ModelState:
    from .dataio import read_dten

    path = os.path.join(directory, CHECKPOINT_MANIFEST)
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "hdcaps-checkpoint":
        raise ValueError(f"{path} is not a checkpoint manifest")
    cfg = TrainConfig.from_dict(manifest["config"])
    state = init_model(cfg, int(manifest["c_spec"]), np.random.default_rng(0))
    flat = parameters(state)
    if set(flat) != set(manifest["params"]):
        raise ValueError("checkpoint parameter names do not match this model")
    for name, fname in manifest["params"].items():
        loaded = read_dten(os.path.join(directory, fname)).astype(np.float64)
        if loaded.shape != flat[name].data.shape:
            raise ValueError(
                f"parameter {name} has shape {loaded.shape}, expected "
                f"{flat[name].data.shape}"
            )
        flat[name].data = loaded
    return state
