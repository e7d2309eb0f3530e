"""The module attributes that perfbench wraps must exist and be called.

perfbench's layer tracer and its timed pieces replace functions by module
attribute (for example ``hdcaps.model.encode_batch``). If a layer stops
being looked up that way, its time silently moves into the untimed rest
of the step, so these tests pin both the names and the call counts of one
``forward_batch`` and of one ``fused_features``. The last test runs
perfbench's self-test, so a source change that moves its reference
outputs fails here rather than as failed operations in a benchmark run.
"""

import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from hdcaps import model
from hdcaps.config import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# calls of each wrapped layer in one forward_batch: two branches, each
# encoded raw and rotated, one decoder per branch, one KL across them.
# perfbench does not time the attention head on its own (its forward falls
# into forward_batch's own time, its backward into the unattributed
# backward time), so it is counted here but is no layertrace target.
FORWARD_CALLS = {
    "extract_preliminary_batch": 1,
    "sample_rotations": 2,
    "encode_batch": 4,
    "attention_map": 4,
    "aggregate": 4,
    "decode": 2,
    "loss_equivariance": 2,
    "loss_invariance": 2,
    "loss_kl": 1,
    "reconstruction_loss": 2,
}
UNTRACED = {"attention_map"}

# calls in one fused_features over 3 batches: one graph-free decompose
# per batch, which lifts the spectra once and encodes each branch once,
# and builds no attention head and aggregates nothing
EXTRACT_CALLS = {
    "decompose_batch": 3,
    "extract_preliminary_batch": 3,
    "encode_batch": 6,
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


def count_model_calls(monkeypatch, names):
    """Wrap each named hdcaps.model attribute; returns the call Counter."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(model, name, counting(name, getattr(model, name)))
    return calls


def test_forward_batch_calls_layers_through_model(monkeypatch):
    calls = count_model_calls(monkeypatch, FORWARD_CALLS)
    cfg = TrainConfig(K=2, C=3, b=3, H=8, n_blocks=1, m=2, G=2, d_cap=2, batch=2)
    rng = np.random.default_rng(0)
    state = model.init_model(cfg, 4, rng)
    hsi = rng.standard_normal((2, 3, 3, 4))
    lidar = rng.standard_normal((2, 9, 3))
    model.forward_batch(state, hsi, lidar, rng)
    assert dict(calls) == FORWARD_CALLS


def test_fused_features_calls_layers_through_model(monkeypatch):
    calls = count_model_calls(monkeypatch, EXTRACT_CALLS)
    cfg = TrainConfig(K=2, C=3, b=3, H=8, n_blocks=1, m=2, G=2, d_cap=2, batch=2)
    rng = np.random.default_rng(1)
    state = model.init_model(cfg, 4, rng)
    hsi = rng.standard_normal((5, 3, 3, 4))
    lidar = rng.standard_normal((5, 9, 3))
    feats = model.fused_features(state, hsi, lidar, batch=2)
    assert feats.shape == (5, 4 * cfg.C)
    assert {name: calls[name] for name in EXTRACT_CALLS} == EXTRACT_CALLS


def test_perfbench_selftest_passes():
    # the benchmark's reference outputs must still hold for this source
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
