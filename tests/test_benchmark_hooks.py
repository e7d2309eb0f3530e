"""The module attributes that perfbench wraps must exist and be called.

perfbench's layer tracer and its timed pieces replace functions by module
attribute (for example ``hdcaps.model.encode_batch``). If a layer stops
being looked up that way, its time silently moves into the untimed rest
of the step, so these tests pin both the names and the call counts of one
``forward_batch``.
"""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np

from hdcaps import model
from hdcaps.config import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# calls of each wrapped layer in one forward_batch: two branches, each
# encoded raw and rotated, one decoder per branch, one KL across them
FORWARD_CALLS = {
    "extract_preliminary_batch": 1,
    "sample_rotations": 2,
    "encode_batch": 4,
    "aggregate": 4,
    "decode": 2,
    "loss_equivariance": 2,
    "loss_invariance": 2,
    "loss_kl": 1,
    "reconstruction_loss": 2,
}


def test_layertrace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from layertrace import TARGETS

    missing = [(mod, attr) for mod, attr, _ in TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
    assert {attr for mod, attr, _ in TARGETS if mod == "hdcaps.model"} >= set(FORWARD_CALLS)


def test_forward_batch_calls_layers_through_model(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in FORWARD_CALLS:
        monkeypatch.setattr(model, name, counting(name, getattr(model, name)))
    cfg = TrainConfig(K=2, C=3, b=3, H=8, n_blocks=1, m=2, G=2, d_cap=2, batch=2)
    rng = np.random.default_rng(0)
    state = model.init_model(cfg, 4, rng)
    hsi = rng.standard_normal((2, 3, 3, 4))
    lidar = rng.standard_normal((2, 9, 3))
    model.forward_batch(state, hsi, lidar, rng)
    assert dict(calls) == FORWARD_CALLS
