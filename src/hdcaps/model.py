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
attention agreement. The entry points check a batch's shapes once, in
``_check_batch``, and the layers below take them as given.

Precision: the parameters' dtype decides. ``init_model`` makes float32
parameters (drawn in float64 and rounded once) as views of one vector, a
checkpoint stores that vector, and ``forward_batch`` and
``decompose_batch`` cast their batch to the parameters' dtype, so
training and the encoder pass of extraction both run in float32. Only
``training.grad_check`` widens its own small model's vector to float64,
so that its finite differences mean something.

The extract path (``fused_features``) takes the lazy
``dataio.PatchStack`` of a ``PatchSet`` and lifts each spectral pixel
once: the capsule lift is per pixel, so ``PatchStack.map_pixels`` runs
``extract_preliminary_batch`` on blocks of the pixels that some window
reads (``dataio``'s rule), which equals lifting every window on its own.
Each batch of ``_EXTRACT_BATCH`` patches then gathers its b x b
windows of d_h-wide capsule points from the lifted scene instead of its
b x b x C_spec windows of spectra.
``decompose_batch`` encodes each branch once and stops at the hidden
maps: it applies neither head and runs no capsule aggregation. The
fused rows are the center row and the mean row of each branch's feature
map F = h W_f + b_f, both affine in h, so ``evaluation.fuse_features``
pools the hidden maps (the mean in float64) and ``feature_map`` then
runs on those two rows per patch instead of all b*b, in float64, the
float32 head parameters widened by numpy's promotion. Every input the
path gives ``autodiff`` is a constant (the lifted windows, the points,
the pooled rows and constant leaves sharing the parameters' arrays), so
it builds no graph, and each batch's fused rows are rounded once to
float32, the precision a feature file stores.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .autodiff import Tensor, as_tensor, matmul
from .capsule_block import extract_preliminary_batch, init_capsule_block
from .config import TrainConfig
from .dataio import PatchStack, read_dten, write_dten, write_json
from .decoder import decode, init_decoder
from .encoder import aggregate, attention_map, encode_batch, feature_map, init_encoder
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
    "bind_vector",
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
# spectra read per capsule lift call on the extract path: small blocks
# keep the lift's temporaries from growing the heap (on the 144-band
# perfbench `extract` scene, 1 MB blocks raised its peak RSS by 0-5 MB)
_LIFT_BLOCK_BYTES = 1 << 18
# patches encoded per decompose_batch call on the extract path
_EXTRACT_BATCH = 256


@dataclass
class ModelState:
    """All learnable parameter groups, the config they were built for and
    the (P,) vector that holds every parameter's values: each parameter's
    ``data`` is a view of its slice (see ``bind_vector``)."""

    config: TrainConfig
    c_spec: int
    caps: dict
    enc_hsi: dict
    enc_lidar: dict
    dec_hsi: dict
    dec_lidar: dict
    vector: np.ndarray | None = None


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
    state = ModelState(cfg, c_spec, caps, enc_hsi, enc_lidar, dec_hsi, dec_lidar)
    # drawn in float64 and rounded once, so the generator's stream and the
    # checkpoint of an untrained model do not depend on the working dtype
    bind_vector(state, np.float32)
    return state


def bind_vector(state: ModelState, dtype) -> None:
    """Copy every parameter's values, cast to dtype, into a new (P,)
    vector in ``parameters(state)`` order, make each parameter's ``data``
    a reshaped view of its slice, and set ``state.vector`` to it. The
    only code that knows where each parameter lies in the vector."""
    flat = list(parameters(state).values())
    state.vector = np.concatenate([t.data.reshape(-1) for t in flat], dtype=dtype)
    for tensor, end in zip(flat, np.cumsum([t.data.size for t in flat])):
        tensor.data = state.vector[end - tensor.data.size:end].reshape(tensor.data.shape)


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


def _branch(enc: dict, dec: dict, pts: Tensor, rot: np.ndarray, target: np.ndarray):
    """One branch's share of the training loss.

    Encodes and aggregates pts raw and rotated by rot (B, d, d), decodes
    the raw view and scores it against the target points, which are
    data. Returns (raw attention map, equivariance, invariance, chamfer).
    """
    pts_rot = matmul(pts, as_tensor(np.swapaxes(rot, -1, -2)))
    hidden = encode_batch(enc, pts)
    feats = feature_map(enc, hidden)
    hidden_rot = encode_batch(enc, pts_rot)
    feats_rot = feature_map(enc, hidden_rot)
    attn = attention_map(enc, hidden)
    attn_rot = attention_map(enc, hidden_rot)
    poses, desc = aggregate(attn, feats, pts)
    poses_rot, desc_rot = aggregate(attn_rot, feats_rot, pts_rot)
    recon = decode(dec, poses, desc)
    return (attn, loss_equivariance(rot, poses, poses_rot),
            loss_invariance(desc, desc_rot), reconstruction_loss(target, recon))


def _check_batch(hsi_patches, lidar_points, channels: int,
                 name: str = "hsi_patches") -> None:
    """Raise a ValueError unless hsi_patches (B, b, b, channels) and
    lidar_points (B, b*b, 3) hold the same B >= 1 patches of the same b*b
    pixels; messages call the first argument `name`. Reads only the two
    ``shape`` attributes. The entry points check a batch here once, and
    the layers below them take its shapes as given."""
    hs, ls = tuple(hsi_patches.shape), tuple(lidar_points.shape)
    if len(hs) != 4 or len(ls) != 3 or ls[2] != 3:
        raise ValueError(f"{name} must be (B, b, b, C) and lidar_points "
                         f"(B, b*b, 3), got {hs} and {ls}")
    if hs[0] != ls[0]:
        raise ValueError(f"{name} has {hs[0]} patches but lidar_points "
                         f"has {ls[0]}")
    if hs[0] < 1:
        raise ValueError(f"{name} has no patches")
    if hs[1] * hs[2] != ls[1]:
        raise ValueError(f"{name} are {hs[1]}x{hs[2]} windows but "
                         f"lidar_points has {ls[1]} points per patch")
    if hs[3] != channels:
        raise ValueError(f"{name} have {hs[3]} channels but the model "
                         f"takes {channels}")


def forward_batch(state: ModelState, hsi_patches: np.ndarray,
                  lidar_points: np.ndarray, rng: np.random.Generator,
                  weights: LossWeights):
    """Run both branches on a batch and assemble the training loss.

    hsi_patches: (B, b, b, C_spec); lidar_points: (B, b*b, 3). Returns
    (total loss Tensor, LossReport). One rotation per sample per branch
    is drawn from rng, spectral first.

    The parameters' dtype decides the precision: the batch and the
    rotations are cast to it on entry, so the whole pass and its backward
    run in float32 for a model from ``init_model`` or ``load_checkpoint``
    and in float64 for the widened model of ``training.grad_check``.
    """
    cfg = state.config
    dtype = state.vector.dtype
    hsi_patches = np.asarray(hsi_patches, dtype=dtype)
    lidar_points = np.asarray(lidar_points, dtype=dtype)
    _check_batch(hsi_patches, lidar_points, state.c_spec)
    n = hsi_patches.shape[0]

    # reconstruction target of the spectral branch: the raw pixel spectra
    # as a point set, NOT the lifted capsule points (which the model could
    # collapse to make reconstruction trivial)
    target_h = hsi_patches.reshape(n, -1, state.c_spec)
    pts_h = extract_preliminary_batch(state.caps, target_h, cfg.G, cfg.d_cap)
    pts_l = as_tensor(lidar_points)
    rot_h = sample_rotations(cfg.d_h, n, rng).astype(dtype)
    rot_l = sample_rotations(3, n, rng).astype(dtype)

    attn_h, equ_h, inv_h, cham_h = _branch(state.enc_hsi, state.dec_hsi,
                                           pts_h, rot_h, target_h)
    attn_l, equ_l, inv_l, cham_l = _branch(state.enc_lidar, state.dec_lidar,
                                           pts_l, rot_l, lidar_points)
    kl = loss_kl(attn_h, attn_l)
    total = (
        (equ_h + inv_h + cham_h) * weights.alpha
        + (equ_l + inv_l + cham_l) * weights.beta
        + kl * weights.gamma
    )
    terms = (equ_h, inv_h, cham_h, equ_l, inv_l, cham_l, kl, total)  # field order
    return total, LossReport(*(float(t.data) for t in terms))


def _constants(group: dict) -> dict:
    """A parameter group with every Tensor replaced by a constant leaf
    that shares its array, so a pass over it builds no graph."""
    return {key: as_tensor(value.data) if isinstance(value, Tensor) else value
            for key, value in group.items()}


def decompose_batch(state: ModelState, lifted_patches: np.ndarray,
                    lidar_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference pass: the (B, X, H) encoder hidden maps of the spectral
    and the elevation branch, in the parameters' dtype (float32 for a
    model from ``init_model`` or ``load_checkpoint``); neither head is
    applied. The extract path that uses it is described in the module
    docstring.

    lifted_patches: (B, b, b, d_h) windows of capsule points, the output
    of ``extract_preliminary_batch`` for the patches' pixels; lidar_points:
    (B, b*b, 3). Both are cast to the parameters' dtype. The pass builds
    no graph and ``state`` is not changed.
    """
    dtype = state.vector.dtype
    lifted_patches = np.asarray(lifted_patches, dtype=dtype)
    lidar_points = np.asarray(lidar_points, dtype=dtype)
    _check_batch(lifted_patches, lidar_points, state.config.d_h,
                 "lifted_patches")
    n, b0, b1, d_h = lifted_patches.shape
    pts_h = as_tensor(lifted_patches.reshape(n, b0 * b1, d_h))
    pts_l = as_tensor(lidar_points)
    hidden_h = encode_batch(_constants(state.enc_hsi), pts_h)
    hidden_l = encode_batch(_constants(state.enc_lidar), pts_l)
    return hidden_h.data, hidden_l.data


def fused_features(state: ModelState, hsi_patches, lidar_points: np.ndarray) -> np.ndarray:
    """Per-patch fused feature vectors, (N, 4 * C) float32.

    Each vector holds, spectral branch first, each branch's center-pixel
    row and mean row of the encoder's feature map. hsi_patches is the
    lazy `dataio.PatchStack` of a `PatchSet` (its ``hsi``); any other
    type raises a TypeError. lidar_points: (N, b*b, 3). How the rows are
    computed is described in the module docstring.
    """
    if not isinstance(hsi_patches, PatchStack):
        raise TypeError(f"hsi_patches must be a dataio.PatchStack (pass "
                        f"PatchSet.hsi), got {type(hsi_patches).__name__}")
    _check_batch(hsi_patches, lidar_points, state.c_spec)
    cfg, caps = state.config, _constants(state.caps)
    lifted = hsi_patches.map_pixels(
        lambda pixels: extract_preliminary_batch(caps, pixels, cfg.G, cfg.d_cap).data,
        _LIFT_BLOCK_BYTES)
    n = hsi_patches.shape[0]
    out = np.empty((n, 4 * cfg.C), dtype=np.float32)
    center = lidar_points.shape[1] // 2
    enc_h, enc_l = _constants(state.enc_hsi), _constants(state.enc_lidar)
    # rows [spectral center, spectral mean, lidar center, lidar mean]
    out_rows = out.reshape(n, 4, cfg.C)
    for start in range(0, n, _EXTRACT_BATCH):
        batch = slice(start, start + _EXTRACT_BATCH)
        hidden_h, hidden_l = decompose_batch(state, lifted[batch], lidar_points[batch])
        pooled = evaluation.fuse_features(hidden_h, hidden_l, center)
        pooled = pooled.reshape(len(hidden_h), 4, -1)
        out_rows[batch, :2] = feature_map(enc_h, pooled[:, :2]).data
        out_rows[batch, 2:] = feature_map(enc_l, pooled[:, 2:]).data
    return out


def save_checkpoint(state: ModelState, directory: str) -> None:
    """Write a checkpoint directory of two files.

    params.dten holds ``state.vector`` as it is, float32, so a reloaded
    model equals the saved one exactly. manifest.json, written after it,
    holds the format, version 2, the config, c_spec and the ordered list
    of parameter names. Other files in the directory are left as they are.
    """
    os.makedirs(directory, exist_ok=True)
    write_dten(os.path.join(directory, CHECKPOINT_PARAMS), state.vector)
    write_json(os.path.join(directory, CHECKPOINT_MANIFEST), {
        "format": "hdcaps-checkpoint",
        "version": CHECKPOINT_VERSION,
        "config": state.config.to_dict(),
        "c_spec": state.c_spec,
        "params": list(parameters(state)),
    })


def load_checkpoint(directory: str) -> ModelState:
    """Rebuild the model saved by save_checkpoint (version 2 only).

    The manifest's names must equal those of the model its config builds,
    in order, and params.dten must hold their total size in float32,
    every value finite; anything else raises a ValueError naming what is
    wrong. A config's adam_beta1, adam_beta2 and adam_eps keys are
    dropped unread: ``training`` holds those as constants.
    """
    path = os.path.join(directory, CHECKPOINT_MANIFEST)
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") != "hdcaps-checkpoint":
        raise ValueError(f"{path} is not a checkpoint manifest")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {manifest.get('version')!r} "
                         f"is not supported, expected {CHECKPOINT_VERSION}")
    for key in ("c_spec", "config", "params"):
        if key not in manifest:
            raise ValueError(f"{path}: missing key {key!r}")
    c_spec = manifest["c_spec"]
    if type(c_spec) is not int:
        raise ValueError(f"{path}: c_spec must be an integer, got {c_spec!r}")
    config = manifest["config"]
    if isinstance(config, dict):  # older manifests name Adam's constants
        config = {k: v for k, v in config.items()
                  if k not in ("adam_beta1", "adam_beta2", "adam_eps")}
    cfg = TrainConfig.from_dict(config)
    state = init_model(cfg, c_spec, np.random.default_rng(0))
    flat = parameters(state)
    if manifest["params"] != list(flat):
        raise ValueError(f"{path}: params must list this model's parameter "
                         f"names in order")
    params_path = os.path.join(directory, CHECKPOINT_PARAMS)
    vector = read_dten(params_path)
    if vector.dtype != np.float32:
        raise ValueError(f"{params_path} holds {vector.dtype} values, "
                         f"expected float32")
    if vector.shape != state.vector.shape:
        raise ValueError(f"{params_path} holds a vector of shape {vector.shape}, "
                         f"expected {state.vector.shape}")
    state.vector[...] = vector
    if not np.isfinite(state.vector).all():
        # one check of the vector; only a failed one looks for the parameter
        name = next(name for name, tensor in flat.items()
                    if not np.isfinite(tensor.data).all())
        raise ValueError(f"{params_path}: parameter {name} holds "
                         f"non-finite values")
    return state
