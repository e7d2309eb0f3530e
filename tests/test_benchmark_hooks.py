"""The module attributes that perfbench wraps must exist and be called.

perfbench's layer tracer and its timed pieces replace functions by module
attribute (for example ``hdcaps.model.encode_batch``). If a layer stops
being looked up that way, its time silently moves into the untimed rest
of the step, so these tests pin both the names and the call counts of one
``forward_batch`` and of one ``fused_features``, and the other names that
perfbench reads from hdcaps. The last test runs
perfbench's self-test, so a source change that moves its reference
outputs fails here rather than as failed operations in a benchmark run.
"""

import importlib
import inspect
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from hdcaps import autodiff, dataio, evaluation, kernels, model
from hdcaps.config import TrainConfig
from hdcaps.losses import LossWeights

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# calls of each wrapped layer in one forward_batch: two branches, each
# encoded raw and rotated, one decoder per branch, one KL across them.
# perfbench does not time the attention and feature heads on their own
# (their forward falls into forward_batch's own time, their backward into
# the unattributed backward time), so they are counted here but are no
# layertrace targets.
FORWARD_CALLS = {
    "extract_preliminary_batch": 1,
    "sample_rotations": 2,
    "encode_batch": 4,
    "feature_map": 4,
    "attention_map": 4,
    "aggregate": 4,
    "decode": 2,
    "loss_equivariance": 2,
    "loss_invariance": 2,
    "loss_kl": 1,
    "reconstruction_loss": 2,
}
UNTRACED = {"attention_map", "feature_map"}

# calls in one fused_features over 3 batches: the covered pixels of the
# small scene are lifted in one block, then one graph-free decompose per
# batch encodes each branch once to its hidden map, and builds no
# attention head and aggregates nothing; `evaluation.fuse_features`,
# which perfbench also wraps, pools each batch once, and the feature head
# runs once per branch on each batch's pooled rows
EXTRACT_CALLS = {
    "decompose_batch": 3,
    "extract_preliminary_batch": 1,
    "encode_batch": 6,
    "feature_map": 6,
    "attention_map": 0,
    "aggregate": 0,
}


def test_layertrace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layertrace import TARGETS

    missing = [(mod, attr) for mod, attr, _ in TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
    traced = {attr for mod, attr, _ in TARGETS if mod == "hdcaps.model"}
    assert traced >= set(FORWARD_CALLS) - UNTRACED


def count_calls(monkeypatch, names, module=model):
    """Wrap each named attribute of module, hdcaps.model by default;
    returns the call Counter."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_forward_batch_calls_layers_through_model(monkeypatch):
    calls = count_calls(monkeypatch, FORWARD_CALLS)
    cfg = TrainConfig(K=2, C=3, b=3, H=8, n_blocks=1, m=2, G=2, d_cap=2, batch=2)
    rng = np.random.default_rng(0)
    state = model.init_model(cfg, 4, rng)
    hsi = rng.standard_normal((2, 3, 3, 4))
    lidar = rng.standard_normal((2, 9, 3))
    model.forward_batch(state, hsi, lidar, rng,
                        LossWeights(cfg.alpha, cfg.beta, cfg.gamma))
    assert dict(calls) == FORWARD_CALLS


def test_fused_features_calls_layers_through_model(monkeypatch):
    calls = count_calls(monkeypatch, EXTRACT_CALLS)
    cfg = TrainConfig(K=2, C=3, b=3, H=8, n_blocks=1, m=2, G=2, d_cap=2, batch=2)
    rng = np.random.default_rng(1)
    state = model.init_model(cfg, 4, rng)
    scene = rng.standard_normal((7, 7, 4)).astype(np.float32)
    hsi = dataio.PatchStack(scene, np.arange(5), np.arange(5), 3)
    lidar = rng.standard_normal((5, 9, 3))
    monkeypatch.setattr(model, "_EXTRACT_BATCH", 2)
    fused = count_calls(monkeypatch, ["fuse_features"], evaluation)
    feats = model.fused_features(state, hsi, lidar)
    assert feats.shape == (5, 4 * cfg.C)
    assert {name: calls[name] for name in EXTRACT_CALLS} == EXTRACT_CALLS
    assert fused["fuse_features"] == 3


def test_names_perfbench_reads_outside_its_targets():
    # run.py::environment records the flag in every BENCH file
    assert isinstance(kernels.NUMBA_ENABLED, bool)
    # run.py::_arg_key keys each timed call by its arguments' `.shape`, so
    # the two branches' `aggregate` calls of a train step are told apart
    assert autodiff.Tensor(np.zeros((2, 3), np.float32)).shape == (2, 3)
    # layertrace.py::_count_chamfer reads the bound arguments `p` and `q`
    assert {"p", "q"} <= set(inspect.signature(kernels.chamfer_forward).parameters)
    # layertrace.py::_count_classifier reads `feats`, `labels` and `epochs`
    params = inspect.signature(evaluation.train_classifier).parameters
    assert {"feats", "labels", "epochs"} <= set(params)
    # run.py::check_extract sizes the feature table by `len(patches)` of the
    # PatchSet, which no package code calls
    labels = np.array([[1, 0, 2], [0, 3, 0]], np.int32)
    patches = dataio.extract_patches(np.ones((2, 3, 4)), np.zeros((2, 3)), labels, b=3)
    assert len(patches) == 3


def test_perfbench_selftest_passes():
    # the benchmark's reference outputs must still hold for this source
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
