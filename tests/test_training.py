"""Optimizer, training loop, determinism and the gradient checker."""

import json
import os
from dataclasses import fields

import numpy as np
import pytest

from hdcaps import autodiff as ad
from hdcaps import dataio, training
from hdcaps.capsule_block import extract_preliminary_batch
from hdcaps.config import TrainConfig
from hdcaps.encoder import encode_batch
from hdcaps.errors import DivergenceError
from hdcaps.losses import LossReport, LossWeights
from hdcaps.model import (
    decompose_batch,
    forward_batch,
    fused_features,
    init_model,
    load_checkpoint,
    parameters,
    save_checkpoint,
)

TINY = dict(K=2, C=3, b=3, H=8, n_blocks=1, m=2, G=2, d_cap=2, batch=2)


def tiny_state(seed=0, c_spec=4, epochs=1, **over):
    kw = dict(TINY)
    kw.update(over)
    cfg = TrainConfig(epochs=epochs, seed=seed, **kw)
    return init_model(cfg, c_spec, np.random.default_rng(seed))


def tiny_data(seed, n=4, b=3, c_spec=4):
    rng = np.random.default_rng(seed)
    hsi = rng.standard_normal((n, b, b, c_spec))
    lidar = rng.standard_normal((n, b * b, 3))
    return hsi, lidar


def clone_params(params):
    return {k: v.data.copy() for k, v in params.items()}


def test_adam_first_step_toy_quadratic():
    w = ad.Tensor(np.array([1.0]))
    w.grad = np.array([2.0])  # d(w^2)/dw at w=1
    opt = training.AdamState()
    training.adam_step({"w": w}, opt, lr=0.001)
    np.testing.assert_allclose(w.data, 1.0 - 0.001, atol=1e-9)


def test_adam_zero_lr_keeps_params_updates_moments():
    w = ad.Tensor(np.array([3.0]))
    w.grad = np.array([1.5])
    opt = training.AdamState()
    training.adam_step({"w": w}, opt, lr=0.0)
    np.testing.assert_allclose(w.data, 3.0, atol=0)
    assert opt.t == 1 and "w" in opt.m and opt.m["w"][0] != 0.0


def test_adam_skips_params_without_grad():
    w = ad.Tensor(np.array([1.0]))
    w.grad = None
    training.adam_step({"w": w}, training.AdamState(), lr=0.1)
    np.testing.assert_allclose(w.data, 1.0, atol=0)


def test_train_epochs_zero_returns_state_unchanged():
    state = tiny_state(epochs=0)
    before = clone_params(parameters(state))
    hsi, lidar = tiny_data(1)
    log = training.train(state, hsi, lidar, np.random.default_rng(0))
    assert log == []
    after = parameters(state)
    for name in before:
        np.testing.assert_array_equal(before[name], after[name].data)


def test_forward_batch_bit_reproducible():
    # fixed seed, tiny config b=3, C_spec=4, K=2, C=3
    hsi, lidar = tiny_data(2)
    totals = []
    for _ in range(2):
        state = tiny_state(seed=3)
        _, report = forward_batch(state, hsi, lidar,
                                  np.random.default_rng(7))
        totals.append(report.total)
    assert totals[0] == totals[1]


def test_forward_zero_weights_zero_total():
    state = tiny_state(seed=4)
    hsi, lidar = tiny_data(5)
    _, report = forward_batch(state, hsi, lidar, np.random.default_rng(0),
                              LossWeights(0.0, 0.0, 0.0))
    assert report.total == 0.0


def test_report_total_is_weighted_combination():
    state = tiny_state(seed=6)
    hsi, lidar = tiny_data(7)
    w = LossWeights(0.3, 0.6, 0.2)
    _, rep = forward_batch(state, hsi, lidar, np.random.default_rng(1), w)
    want = (0.3 * (rep.equ_hsi + rep.inv_hsi + rep.cham_hsi)
            + 0.6 * (rep.equ_lidar + rep.inv_lidar + rep.cham_lidar)
            + 0.2 * rep.kl)
    np.testing.assert_allclose(rep.total, want, rtol=1e-12)


def test_train_deterministic_final_params():
    hsi, lidar = tiny_data(8, n=6)
    finals = []
    for _ in range(2):
        state = tiny_state(seed=9, epochs=2)
        training.train(state, hsi, lidar, np.random.default_rng(9))
        finals.append(clone_params(parameters(state)))
    for name in finals[0]:
        np.testing.assert_array_equal(finals[0][name], finals[1][name])


def test_train_and_fused_features_same_on_lazy_and_dense_stack():
    hsi, elev, labels = dataio.gen_synthetic(7, 8, 3, 4, np.random.default_rng(2))
    ps = dataio.extract_patches(hsi, elev, labels, b=3)
    dense = np.asarray(ps.hsi)
    runs = []
    for stack in (ps.hsi, dense):
        state = tiny_state(seed=4, epochs=2, batch=5)
        history = training.train(state, stack, ps.lidar, np.random.default_rng(4))
        feats = fused_features(state, stack, ps.lidar, batch=7)
        runs.append((history, clone_params(parameters(state)), feats))
    (hist_a, params_a, feats_a), (hist_b, params_b, feats_b) = runs
    assert hist_a == hist_b
    for name in params_a:
        np.testing.assert_array_equal(params_a[name], params_b[name])
    np.testing.assert_array_equal(feats_a, feats_b)


def test_forward_graph_size_guard():
    # linear, acn and weighted_mean must stay single nodes: built from
    # composite ops the same forward has 288 nodes with a closure. The
    # count depends only on n_blocks, so the tiny widths keep the default 2.
    state = tiny_state(seed=12, n_blocks=2)
    hsi, lidar = tiny_data(13)
    total, _ = forward_batch(state, hsi, lidar, np.random.default_rng(14))
    nodes = sum(1 for node in ad._topo(total) if node._backward is not None)
    assert nodes <= 160


def test_decompose_batch_leaves_no_cyclic_garbage():
    import gc

    state = tiny_state(seed=15)
    hsi, lidar = tiny_data(16)
    gc.collect()
    feats = decompose_batch(state, hsi, lidar)
    del feats
    assert gc.collect() == 0


def test_decompose_batch_equals_graph_mode_encoder():
    state = tiny_state(seed=17, n_blocks=2)
    hsi, lidar = tiny_data(18, n=5)
    feats_h, feats_l = decompose_batch(state, hsi, lidar)
    cfg = state.config
    pts_h = extract_preliminary_batch(state.caps, hsi, cfg.G, cfg.d_cap)
    _, want_h = encode_batch(state.enc_hsi, pts_h)
    _, want_l = encode_batch(state.enc_lidar, ad.Tensor(lidar))
    assert want_h._backward is not None
    np.testing.assert_array_equal(feats_h, want_h.data)
    np.testing.assert_array_equal(feats_l, want_l.data)


@pytest.mark.parametrize("batch", [0, -3])
def test_fused_features_rejects_nonpositive_batch(batch):
    state = tiny_state(seed=19)
    hsi, lidar = tiny_data(20)
    with pytest.raises(ValueError, match="batch"):
        fused_features(state, hsi, lidar, batch=batch)


def test_fused_features_rejects_mismatched_lengths():
    state = tiny_state(seed=21)
    hsi, lidar = tiny_data(22, n=4)
    with pytest.raises(ValueError, match=r"4 patches.*3"):
        fused_features(state, hsi, lidar[:3])


def test_batch_of_one_step_equals_single_pair_step():
    hsi, lidar = tiny_data(10, n=1)
    state_a = tiny_state(seed=11)
    state_b = tiny_state(seed=11)
    params_a = parameters(state_a)
    params_b = parameters(state_b)
    weights = LossWeights()

    opt_a = training.AdamState()
    training.train_step(state_a, opt_a, params_a, hsi, lidar,
                        np.random.default_rng(12), weights)

    training.zero_grads(params_b)
    total, _ = forward_batch(state_b, hsi[:1], lidar[:1],
                             np.random.default_rng(12), weights)
    ad.backward(total)
    training.adam_step(params_b, training.AdamState(), state_b.config.lr,
                       state_b.config.adam_beta1, state_b.config.adam_beta2,
                       state_b.config.adam_eps)
    for name in params_a:
        np.testing.assert_allclose(params_a[name].data, params_b[name].data,
                                   atol=1e-12)


def test_two_steps_decrease_fixed_batch_loss():
    hits = 0
    weights = LossWeights()
    for seed in range(100):
        state = tiny_state(seed=seed)
        params = parameters(state)
        hsi, lidar = tiny_data(1000 + seed, n=2)
        opt = training.AdamState()
        _, before = forward_batch(state, hsi, lidar,
                                  np.random.default_rng(seed), weights)
        for _ in range(2):
            training.train_step(state, opt, params, hsi, lidar,
                                np.random.default_rng(seed), weights)
        _, after = forward_batch(state, hsi, lidar,
                                 np.random.default_rng(seed), weights)
        hits += int(after.total < before.total)
    assert hits >= 95, f"loss decreased in only {hits}/100 trials"


def test_train_divergence_aborts_with_name():
    state = tiny_state(seed=13)
    params = parameters(state)
    params["enc_hsi.lift_w"].data[0, 0] = np.inf
    hsi, lidar = tiny_data(14)
    with pytest.raises(DivergenceError):
        training.train(state, hsi, lidar, np.random.default_rng(0))


def test_train_rejects_empty_or_mismatched():
    state = tiny_state()
    hsi, lidar = tiny_data(15)
    with pytest.raises(ValueError):
        training.train(state, hsi[:0], lidar[:0], np.random.default_rng(0))
    with pytest.raises(ValueError):
        training.train(state, hsi, lidar[:2], np.random.default_rng(0))


def test_train_writes_csv_log(tmp_path):
    state = tiny_state(seed=16, epochs=2)
    hsi, lidar = tiny_data(17)
    log_path = tmp_path / "log.csv"
    history = training.train(state, hsi, lidar, np.random.default_rng(0),
                             log_path=str(log_path))
    lines = log_path.read_text().strip().splitlines()
    assert lines[0] == ("epoch,equ_hsi,inv_hsi,cham_hsi,"
                        "equ_lidar,inv_lidar,cham_lidar,kl,total")
    assert len(lines) == 3 and len(history) == 2
    assert float(lines[1].split(",")[-1]) == history[0]["total"]


def test_report_fields_name_the_csv_columns():
    # the CSV header is built from LossReport's fields; pin their order
    names = [f.name for f in fields(LossReport)]
    assert names == ["equ_hsi", "inv_hsi", "cham_hsi", "equ_lidar",
                     "inv_lidar", "cham_lidar", "kl", "total"]
    report = LossReport(*[float(i) for i in range(len(names))])
    assert list(report.as_dict().items()) == [(n, float(i)) for i, n in enumerate(names)]


def test_grad_check_five_seeds_tiny_config():
    for seed in range(1, 6):
        max_rel, records = training.grad_check(seed=seed, n_samples=4)
        assert max_rel < 1e-4, f"seed {seed}: {max_rel}"
        assert all(r["rel_err"] <= max_rel for r in records)


def test_grad_check_detects_corruption(monkeypatch):
    # inflate one parameter's analytic gradient after the real backward
    # pass; the checker must report it
    params = {}
    real_parameters, real_backward = training.parameters, training.backward

    def capture(state):
        params.update(real_parameters(state))
        return params

    def inflated_backward(total):
        real_backward(total)
        tensor = params["enc_hsi.lift_w"]
        tensor.grad = tensor.grad * 2.0 + 1.0

    monkeypatch.setattr(training, "parameters", capture)
    monkeypatch.setattr(training, "backward", inflated_backward)
    max_rel, _ = training.grad_check(seed=0, n_samples=4)
    assert max_rel > 1e-2


def test_zero_weights_random_biases_near_linear():
    # with every weight matrix zeroed the loss is nearly linear in each
    # parameter, so finite differences and analytic gradients agree tightly
    state = tiny_state(seed=20)
    params = parameters(state)
    rng = np.random.default_rng(21)
    for name, tensor in params.items():
        leaf = name.split(".")[-1]
        if leaf == "b" or leaf.endswith("_b") or leaf in ("b1", "b2"):
            tensor.data = 0.1 * rng.standard_normal(tensor.data.shape)
        else:
            tensor.data = np.zeros_like(tensor.data)
    hsi, lidar = tiny_data(22, n=2)
    weights = LossWeights()

    def eval_loss():
        total, _ = forward_batch(state, hsi, lidar,
                                 np.random.default_rng(23), weights)
        return total

    training.zero_grads(params)
    ad.backward(eval_loss())
    h = 1e-5
    worst = 0.0
    for name, tensor in params.items():
        grad = tensor.grad
        if grad is None:
            grad = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        picks = np.random.default_rng(24).choice(
            flat.size, size=min(3, flat.size), replace=False)
        for idx in picks:
            keep = flat[idx]
            flat[idx] = keep + h
            fp = float(eval_loss().data)
            flat[idx] = keep - h
            fm = float(eval_loss().data)
            flat[idx] = keep
            num = (fp - fm) / (2 * h)
            ana = grad.reshape(-1)[idx]
            worst = max(worst, abs(ana - num) / max(1e-8, abs(ana) + abs(num)))
    assert worst < 1e-6, worst


def test_checkpoint_round_trip(tmp_path):
    state = tiny_state(seed=18)
    hsi, lidar = tiny_data(19)
    training.train(state, hsi, lidar, np.random.default_rng(3))
    save_checkpoint(state, str(tmp_path / "ckpt"))
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    src = parameters(state)
    dst = parameters(loaded)
    assert set(src) == set(dst)
    for name in src:
        np.testing.assert_array_equal(
            src[name].data.astype(np.float32), dst[name].data.astype(np.float32)
        )
    assert loaded.config.to_dict() == state.config.to_dict()


def dten_files(directory):
    return sorted(f for f in os.listdir(directory) if f.endswith(".dten"))


def test_checkpoint_overwrite_removes_stale_tensors(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(tiny_state(seed=25, n_blocks=3), str(ckpt))
    (ckpt / "notes.txt").write_text("kept")
    (ckpt / "extra.dten").write_bytes(b"not listed")
    small = tiny_state(seed=26, n_blocks=1)
    save_checkpoint(small, str(ckpt))
    want = sorted(name + ".dten" for name in parameters(small))
    assert dten_files(ckpt) == sorted(want + ["extra.dten"])
    assert (ckpt / "notes.txt").read_text() == "kept"
    loaded = load_checkpoint(str(ckpt))
    assert loaded.config.n_blocks == 1
    assert set(parameters(loaded)) == set(parameters(small))


def test_checkpoint_overwrite_keeps_unsafe_manifest_names(tmp_path):
    # the old manifest is read from disk; names that are not a plain
    # *.dten file in the checkpoint directory must never be deleted
    ckpt = tmp_path / "ckpt"
    (ckpt / "sub").mkdir(parents=True)
    (tmp_path / "outside.dten").write_bytes(b"x")
    (ckpt / "sub" / "inner.dten").write_bytes(b"x")
    (ckpt / "notes.txt").write_bytes(b"x")
    (ckpt / "dir.dten").mkdir()
    listed = ["../outside.dten", "sub/inner.dten", "notes.txt", "dir.dten",
              str(tmp_path / "outside.dten"), 7, None]
    (ckpt / "manifest.json").write_text(json.dumps(
        {"params": {f"p{i}": name for i, name in enumerate(listed)}}))
    save_checkpoint(tiny_state(seed=27), str(ckpt))
    for path in (tmp_path / "outside.dten", ckpt / "sub" / "inner.dten",
                 ckpt / "notes.txt", ckpt / "dir.dten"):
        assert path.exists(), path
    load_checkpoint(str(ckpt))


@pytest.mark.parametrize("old_manifest", ["{not json", "[1, 2]", '{"params": [1]}'])
def test_checkpoint_overwrite_tolerates_malformed_manifest(tmp_path, old_manifest):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "manifest.json").write_text(old_manifest)
    state = tiny_state(seed=28)
    save_checkpoint(state, str(ckpt))
    assert dten_files(ckpt) == sorted(name + ".dten" for name in parameters(state))
    load_checkpoint(str(ckpt))
