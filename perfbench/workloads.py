"""Inputs, set-up and measured stages of the three benchmark workloads.

All three run in one process through ``hdcaps``'s public functions, and
every input is generated from the run's seed; the program sees only the
generated scenes, patches, checkpoints and feature files.

``train``
    Input: ``gen_synthetic(48, 48, 4 classes, 144 bands)`` cut into
    2304 patches of 5 x 5 pixels, and a model from ``init_model`` with
    the default ``TrainConfig`` (batch 64, K = 15, C = 50, H = 32). Load:
    a closed loop of ``train_step``; each step starts when the previous
    one has returned. Why: it is the only workload that runs backward,
    chamfer, the decoders, the losses and Adam, and at a real band count
    (about 150) chamfer is a large share of the step. Roadmap items it
    exercises: layer tracing (1), the matmul chamfer, the 2B-batched
    encoder and fused ops (2), the deletion of the numba path (3), the
    reference cycles that keep old graphs alive (peak RSS). The
    evaluation items (4) should leave it unchanged.

``extract``
    Input: a scene of real size, ``gen_synthetic(120, 125, 15, 144)``
    (15 000 labelled patches), and a checkpoint of ``init_model`` saved
    during set-up. Stage: ``load_checkpoint`` -> ``read_scene`` ->
    ``extract_patches`` -> ``fused_features`` -> ``write_features``.
    Why: it runs the same capsule lift and encoder as ``train`` but
    forward only, in batches of 256, with one view and no chamfer,
    decoder, backward or Adam; its 216 MB of float32 patches exceed the
    last-level cache. ``no_grad`` and fused forward ops (2) show here;
    the matmul chamfer, the 2B-batched encoder (2) and the evaluation
    items (4) should leave it unchanged.

``evaluate``
    Input: the 200-D fused features of a 24 x 25 scene with 4 classes
    (600 patches), computed and written during set-up, and a second
    24 x 25 scene with 4 classes. Stages: ``probe`` = ``read_features``
    -> ``stratified_split(0.05)`` -> ``evaluate_split``; ``baseline`` =
    ``read_scene`` -> ``extract_patches`` -> ``raw_patch_features`` ->
    ``laplacian_eigenmaps(32, 10 neighbours)`` -> ``evaluate_split``.
    Why: it runs no autodiff, so the evaluation items (4: sparse
    Laplacian eigenmaps, one-matrix Pegasos, bincount confusion matrix)
    show here and must leave ``train`` and ``extract`` unchanged, while
    the model items (2) must leave it unchanged. The scenes are small so
    that every timed call takes 0.1 s or less and a run holds about a
    hundred passes: at the real size (the 15 000 extract features and
    3025 pixels) one Pegasos call took 7-11 s and a pass 11-19 s, and
    runs of two passes gave no steady time on a shared host. For some
    seeds the neighbour graph of a generated scene falls apart, and
    Laplacian eigenmaps then embeds only its largest component, a smaller
    problem; so set-up draws baseline scenes from the seed until the
    graph is connected (``make_baseline_scene``), and the eigenproblem
    has 600 rows on every seed.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hdcaps import dataio, evaluation, model, training
from hdcaps.config import TrainConfig
from hdcaps.losses import LossWeights

WORKLOADS = ("train", "extract", "evaluate")

# (height, width, classes, bands) of each generated scene
TRAIN_SCENE = (48, 48, 4, 144)
EXTRACT_SCENE = (120, 125, 15, 144)
PROBE_SCENE = (24, 25, 4, 144)
BASELINE_SCENE = (24, 25, 4, 144)
# baseline scenes drawn per seed before giving up on a connected graph
BASELINE_ATTEMPTS = 20

PROBE_TRAIN_FRACTION = 0.05
LE_COMPONENTS = 32
LE_NEIGHBORS = 10

# independent random streams drawn from one run seed
SCENE_RNG, MODEL_RNG, TRAIN_RNG, SPLIT_RNG, BASELINE_RNG = range(5)


def stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng([seed, which])


def make_scene(directory: str, shape: tuple, rng: np.random.Generator) -> None:
    height, width, classes, bands = shape
    hsi, elevation, labels = dataio.gen_synthetic(height, width, classes, bands, rng)
    dataio.write_scene(directory, hsi, elevation, labels)


def make_checkpoint(directory: str, c_spec: int, seed: int) -> None:
    state = model.init_model(TrainConfig(), c_spec, stream(seed, MODEL_RNG))
    model.save_checkpoint(state, directory)


def knn_graph_connected(feats: np.ndarray, n_neighbors: int) -> bool:
    """Whether the symmetrized kNN graph that ``laplacian_eigenmaps``
    builds on these features is connected."""
    x = np.asarray(feats, dtype=np.float64)
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, np.inf)
    nn = np.argsort(d2, axis=1)[:, :n_neighbors]
    rows = np.repeat(np.arange(n), n_neighbors)
    graph = coo_matrix((np.ones(rows.shape[0]), (rows, nn.reshape(-1))), shape=(n, n))
    return connected_components(graph, directed=False)[0] == 1


def make_baseline_scene(directory: str, seed: int) -> None:
    """Write the seed's first baseline scene whose neighbour graph is
    connected, so that the eigenproblem spans every pixel on every seed."""
    height, width, classes, bands = BASELINE_SCENE
    for attempt in range(BASELINE_ATTEMPTS):
        rng = np.random.default_rng([seed, BASELINE_RNG, attempt])
        hsi, elevation, labels = dataio.gen_synthetic(height, width, classes, bands, rng)
        patches = dataio.extract_patches(hsi, elevation, labels, TrainConfig().b)
        if knn_graph_connected(evaluation.raw_patch_features(patches), LE_NEIGHBORS):
            dataio.write_scene(directory, hsi, elevation, labels)
            return
    raise RuntimeError(f"no connected baseline scene in {BASELINE_ATTEMPTS} draws for seed {seed}")


def inputs(directory: str) -> dict:
    """Where set-up leaves each input inside a work directory."""
    names = ("hsi_patches.dten", "lidar_points.dten", "scene", "checkpoint",
             "features.hdcf", "baseline_scene")
    return {name.split(".")[0]: os.path.join(directory, name) for name in names}


def setup(workload: str, seed: int, directory: str) -> None:
    """Generate and write every input the measured stage reads."""
    p = inputs(directory)
    os.makedirs(directory, exist_ok=True)
    if workload == "train":
        height, width, classes, bands = TRAIN_SCENE
        hsi, elevation, labels = dataio.gen_synthetic(
            height, width, classes, bands, stream(seed, SCENE_RNG))
        patches = dataio.extract_patches(hsi, elevation, labels, TrainConfig().b)
        dataio.write_dten(p["hsi_patches"], patches.hsi)
        dataio.write_dten(p["lidar_points"], patches.lidar)
    elif workload == "extract":
        make_scene(p["scene"], EXTRACT_SCENE, stream(seed, SCENE_RNG))
        make_checkpoint(p["checkpoint"], EXTRACT_SCENE[3], seed)
    elif workload == "evaluate":
        # the probe reads what the extract stage writes for its scene
        make_scene(p["scene"], PROBE_SCENE, stream(seed, SCENE_RNG))
        make_checkpoint(p["checkpoint"], PROBE_SCENE[3], seed)
        extract_stage(p["scene"], p["checkpoint"], p["features"])
        make_baseline_scene(p["baseline_scene"], seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


class TrainLoop:
    """Closed loop of ``train_step`` over shuffled minibatches, as
    ``training.train`` runs it, one step per :meth:`step` call."""

    def __init__(self, directory: str, seed: int):
        p = inputs(directory)
        self.hsi = dataio.read_dten(p["hsi_patches"])
        self.lidar = dataio.read_dten(p["lidar_points"])
        cfg = TrainConfig()
        self.state = model.init_model(cfg, self.hsi.shape[-1], stream(seed, MODEL_RNG))
        self.params = model.parameters(self.state)
        self.opt = training.AdamState()
        self.weights = LossWeights(cfg.alpha, cfg.beta, cfg.gamma)
        self.rng = stream(seed, TRAIN_RNG)
        self.batch = cfg.batch
        self.order = np.empty(0, dtype=np.int64)
        self.pos = 0
        self.epoch_totals = [[]]  # per epoch, the total loss of each step

    def step(self):
        n = self.hsi.shape[0]
        if self.pos >= n:
            self.pos = 0
            self.epoch_totals.append([])
        if self.pos == 0:
            self.order = self.rng.permutation(n)
        idx = self.order[self.pos:self.pos + self.batch]
        self.pos += self.batch
        report = training.train_step(self.state, self.opt, self.params,
                                     self.hsi[idx], self.lidar[idx],
                                     self.rng, self.weights)
        self.epoch_totals[-1].append(report.total)
        return report


def extract_stage(scene_dir: str, checkpoint_dir: str, out_path: str):
    """The ``hdcaps extract`` pipeline. Returns (features, patch set)."""
    state = model.load_checkpoint(checkpoint_dir)
    hsi, elevation, labels = dataio.read_scene(scene_dir)
    patches = dataio.extract_patches(hsi, elevation, labels, state.config.b)
    feats = model.fused_features(state, patches.hsi, patches.lidar)
    dataio.write_features(out_path, patches.rows, patches.cols, patches.labels, feats)
    return feats, patches


def probe_stage(features_path: str, seed: int) -> dict:
    """The ``hdcaps eval`` pipeline on a feature file."""
    _, _, labels, feats = dataio.read_features(features_path)
    train_idx, test_idx = dataio.stratified_split(
        labels, PROBE_TRAIN_FRACTION, stream(seed, SPLIT_RNG))
    return evaluation.evaluate_split(feats.astype(np.float64), labels,
                                     train_idx, test_idx, seed=seed)


def baseline_stage(scene_dir: str, seed: int) -> dict:
    """The ``hdcaps baseline --method le`` pipeline on a scene."""
    hsi, elevation, labels = dataio.read_scene(scene_dir)
    patches = dataio.extract_patches(hsi, elevation, labels, TrainConfig().b)
    raw = evaluation.raw_patch_features(patches)
    feats = evaluation.laplacian_eigenmaps(raw, LE_COMPONENTS, n_neighbors=LE_NEIGHBORS)
    train_idx, test_idx = dataio.stratified_split(
        patches.labels, PROBE_TRAIN_FRACTION, stream(seed, SPLIT_RNG))
    return evaluation.evaluate_split(feats, patches.labels, train_idx, test_idx, seed=seed)
