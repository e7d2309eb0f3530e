"""Optimizer, training loop, determinism and the gradient checker."""

import json
import os
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np
import pytest

from hdcaps import autodiff as ad
from hdcaps import dataio, model, training
from hdcaps.capsule_block import extract_preliminary_batch, init_capsule_block
from hdcaps.config import TrainConfig
from hdcaps.decoder import init_decoder
from hdcaps.encoder import encode_batch, feature_map, init_encoder
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


def config_weights(state):
    """The loss weights that train() uses: those of the model's config."""
    cfg = state.config
    return LossWeights(cfg.alpha, cfg.beta, cfg.gamma)


def tiny_data(seed, n=4, b=3, c_spec=4):
    rng = np.random.default_rng(seed)
    hsi = rng.standard_normal((n, b, b, c_spec))
    lidar = rng.standard_normal((n, b * b, 3))
    return hsi, lidar


def lift(state, hsi):
    """The (B, b, b, d_h) capsule points of patches hsi (B, b, b, C), each
    window lifted on its own by extract_preliminary_batch in float32, as
    constants, so no graph is built."""
    cfg = state.config
    caps = {key: ad.as_tensor(tensor.data) for key, tensor in state.caps.items()}
    return extract_preliminary_batch(caps, np.asarray(hsi, dtype=np.float32),
                                     cfg.G, cfg.d_cap).data


def tiny_stack(seed, n=4, b=3, c_spec=4):
    """The PatchSet hsi and lidar of n labelled pixels of a random 5 x 6
    scene with c_spec bands."""
    hsi, elev, _ = dataio.gen_synthetic(5, 6, 2, c_spec, np.random.default_rng(seed))
    labels = np.zeros(hsi.shape[:2], dtype=np.int32)
    labels.reshape(-1)[:n] = 1
    ps = dataio.extract_patches(hsi, elev, labels, b)
    return ps.hsi, ps.lidar


def clone_params(params):
    return {k: v.data.copy() for k, v in params.items()}


def test_adam_first_step_toy_quadratic():
    w = np.array([1.0])
    opt = training.AdamState()
    # d(w^2)/dw at w=1
    training.adam_step(w, np.array([2.0]), opt, lr=0.001)
    np.testing.assert_allclose(w, 1.0 - 0.001, atol=1e-9)


def test_adam_zero_lr_keeps_params_updates_moments():
    w = np.array([3.0])
    opt = training.AdamState()
    training.adam_step(w, np.array([1.5]), opt, lr=0.0)
    np.testing.assert_allclose(w, 3.0, atol=0)
    assert opt.t == 1 and opt.m.shape == opt.v.shape == (1,) and opt.m[0] != 0.0


def per_tensor_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: the Adam update as a loop over named tensors, each with its
    own moment arrays in the dicts m and v, step t counted from 1."""
    for name in params:
        g = grads[name]
        m.setdefault(name, np.zeros_like(params[name]))
        v.setdefault(name, np.zeros_like(params[name]))
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        m_hat = m[name] / (1.0 - beta1 ** t)
        v_hat = v[name] / (1.0 - beta2 ** t)
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_vector_step_equals_per_tensor_loop():
    # Adam is elementwise: one update of the concatenated vector must give
    # the per-tensor loop's parameters and moments to the last bit
    rng = np.random.default_rng(40)
    shapes = {"w": (3, 4), "b": (4,), "k": (2, 3, 2), "s": (1,)}
    params = {name: rng.standard_normal(shape).astype(np.float32)
              for name, shape in shapes.items()}
    vector = np.concatenate([p.reshape(-1) for p in params.values()])
    m, v, opt = {}, {}, training.AdamState()
    for t in range(1, 6):
        grads = {name: (rng.standard_normal(p.shape) * 10.0 ** (t - 3)).astype(np.float32)
                 for name, p in params.items()}
        per_tensor_adam(params, grads, m, v, t, lr=0.01)
        training.adam_step(vector, np.concatenate([g.reshape(-1) for g in grads.values()]),
                           opt, lr=0.01)
        assert opt.t == t
        for got, want in ((vector, params), (opt.m, m), (opt.v, v)):
            assert got.dtype == np.float32
            assert np.array_equal(got, np.concatenate([a.reshape(-1) for a in want.values()]))


def assert_parameters_view_vector(state, dtype=np.float32):
    """Every parameter's data is a view into state.vector, and the views
    laid end to end in parameters(state) order are the vector."""
    params = parameters(state)
    assert state.vector.dtype == dtype and state.vector.ndim == 1
    for name, tensor in params.items():
        assert np.shares_memory(tensor.data, state.vector), name
    assert np.array_equal(np.concatenate([t.data.reshape(-1) for t in params.values()]),
                          state.vector)


def test_parameters_share_the_state_vector(monkeypatch, tmp_path):
    state = tiny_state(seed=41)
    assert_parameters_view_vector(state)
    hsi, lidar = tiny_data(42)
    before = state.vector.copy()
    training.train_step(state, training.AdamState(), parameters(state), hsi, lidar,
                        np.random.default_rng(43), config_weights(state))
    assert_parameters_view_vector(state)
    assert not np.array_equal(state.vector, before)
    save_checkpoint(state, str(tmp_path))
    saved = dataio.read_dten(str(tmp_path / "params.dten"))
    assert saved.dtype == np.float32 and np.array_equal(saved, state.vector)
    loaded = load_checkpoint(str(tmp_path))
    assert_parameters_view_vector(loaded)
    assert np.array_equal(loaded.vector, state.vector)

    # grad_check widens the vector to float64 and binds the views again
    seen = []
    real_parameters = training.parameters

    def checked(widened):
        assert_parameters_view_vector(widened, np.float64)
        seen.append(widened)
        return real_parameters(widened)

    monkeypatch.setattr(training, "parameters", checked)
    training.grad_check(seed=0, n_samples=1)
    assert len(seen) == 1


def test_train_step_refuses_param_without_grad(monkeypatch):
    # a parameter that gets no gradient stops the step with an error
    # naming it, before Adam touches the vector or the moments
    state = tiny_state(seed=44)
    params = parameters(state)
    hsi, lidar = tiny_data(45)
    opt = training.AdamState()
    training.train_step(state, opt, params, hsi, lidar, np.random.default_rng(46),
                        config_weights(state))
    vector, m, v = state.vector.copy(), opt.m.copy(), opt.v.copy()
    real_backward = training.backward

    def dropping_backward(total):
        real_backward(total)
        params["enc_lidar.lift_w"].grad = None

    monkeypatch.setattr(training, "backward", dropping_backward)
    with pytest.raises(RuntimeError, match=r"parameter enc_lidar\.lift_w received no gradient"):
        training.train_step(state, opt, params, hsi, lidar, np.random.default_rng(47),
                            config_weights(state))
    assert opt.t == 1
    for got, want in ((state.vector, vector), (opt.m, m), (opt.v, v)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("poisoned", [("caps_hsi.w",), ("enc_lidar.feat_b",),
                                      ("dec_lidar.b2",),
                                      ("dec_hsi.w1", "enc_hsi.lift_b")])
def test_train_step_names_the_parameter_with_a_non_finite_gradient(monkeypatch, poisoned):
    # one finite check covers the whole gradient; when it fails, the
    # error still names the first such parameter in parameters() order,
    # and nothing is updated
    state = tiny_state(seed=44)
    params = parameters(state)
    name = next(key for key in params if key in poisoned)
    hsi, lidar = tiny_data(45)
    opt = training.AdamState()
    training.train_step(state, opt, params, hsi, lidar, np.random.default_rng(46),
                        config_weights(state))
    vector, m, v = state.vector.copy(), opt.m.copy(), opt.v.copy()
    real_backward = training.backward

    def poisoning_backward(total):
        real_backward(total)
        for key in poisoned:
            grad = params[key].grad.copy()
            grad.reshape(-1)[-1] = np.inf
            params[key].grad = grad

    monkeypatch.setattr(training, "backward", poisoning_backward)
    with pytest.raises(DivergenceError) as info:
        training.train_step(state, opt, params, hsi, lidar, np.random.default_rng(47),
                            config_weights(state), epoch=2, step=5)
    err = info.value
    assert (err.tensor_name, err.epoch, err.step) == (name, 2, 5)
    assert "gradient is not finite" in str(err)
    assert opt.t == 1
    for got, want in ((state.vector, vector), (opt.m, m), (opt.v, v)):
        assert np.array_equal(got, want)


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
                                  np.random.default_rng(7), config_weights(state))
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
    # the terms and weights are float32, the parameters' dtype, and are
    # combined in float32, so the same float32 sum reproduces the total
    t = {name: np.float32(value) for name, value in asdict(rep).items()}
    want = ((t["equ_hsi"] + t["inv_hsi"] + t["cham_hsi"]) * np.float32(0.3)
            + (t["equ_lidar"] + t["inv_lidar"] + t["cham_lidar"]) * np.float32(0.6)
            + t["kl"] * np.float32(0.2))
    assert rep.total == float(want)


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
        # fused_features takes only the PatchStack: both models read it
        feats = fused_features(state, ps.hsi, ps.lidar)
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
    total, _ = forward_batch(state, hsi, lidar, np.random.default_rng(14),
                             config_weights(state))
    nodes = sum(1 for node in ad._topo(total) if node._backward is not None)
    assert nodes <= 160


def test_decompose_batch_leaves_no_cyclic_garbage():
    import gc

    state = tiny_state(seed=15)
    hsi, lidar = tiny_data(16)
    lifted = lift(state, hsi)
    gc.collect()
    feats = decompose_batch(state, lifted, lidar)
    del feats
    assert gc.collect() == 0


# decompose_batch and fused_features compute in float32. Their largest
# absolute error over the largest magnitude of the float64 result is
# bounded here by 1e-6, about 8 float32 ulps at 1; the tests below
# measure 1.5e-7 to 8.6e-7. Never widen it.
FLOAT32_REL_TOL = 1e-6


def max_rel_err(got, want):
    """Largest absolute difference over the largest magnitude of want."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def graph_mode_hidden_maps(state, hsi, lidar):
    """The (B, X, H) hidden maps of both branches, computed in float64
    from the trainable float32 parameters, which float64 inputs widen, so
    the encoder builds a graph."""
    cfg = state.config
    hsi = np.asarray(hsi, dtype=np.float64)
    pts_h = extract_preliminary_batch(state.caps, hsi.reshape(len(hsi), -1, state.c_spec),
                                      cfg.G, cfg.d_cap)
    hidden_h = encode_batch(state.enc_hsi, pts_h)
    hidden_l = encode_batch(state.enc_lidar, ad.Tensor(lidar))
    assert hidden_h._backward is not None
    return hidden_h, hidden_l


def graph_mode_feature_maps(state, hsi, lidar):
    """The (B, X, C) feature maps of both branches in float64 graph mode:
    the feature head on every point of the hidden maps, as training
    applies it, and no attention head."""
    hidden_h, hidden_l = graph_mode_hidden_maps(state, hsi, lidar)
    return (feature_map(state.enc_hsi, hidden_h).data,
            feature_map(state.enc_lidar, hidden_l).data)


def test_decompose_batch_equals_graph_mode_encoder():
    state = tiny_state(seed=17, n_blocks=2)
    hsi, lidar = tiny_data(18, n=5)
    hidden_h, hidden_l = decompose_batch(state, lift(state, hsi), lidar)
    want_h, want_l = graph_mode_hidden_maps(state, hsi, lidar)
    assert max_rel_err(hidden_h, want_h.data) <= FLOAT32_REL_TOL
    assert max_rel_err(hidden_l, want_l.data) <= FLOAT32_REL_TOL
    # and the float32 feature head on every point of them
    feats_h = feature_map(model._constants(state.enc_hsi), hidden_h).data
    feats_l = feature_map(model._constants(state.enc_lidar), hidden_l).data
    assert feats_h.dtype == feats_l.dtype == np.float32
    want_h, want_l = graph_mode_feature_maps(state, hsi, lidar)
    assert max_rel_err(feats_h, want_h) <= FLOAT32_REL_TOL
    assert max_rel_err(feats_l, want_l) <= FLOAT32_REL_TOL


def test_decompose_batch_returns_float32_and_leaves_params_unchanged():
    state = tiny_state(seed=23, n_blocks=2)
    hsi, lidar = tiny_data(24, n=3)
    before = parameters(state)
    arrays = {name: tensor.data for name, tensor in before.items()}
    values = clone_params(before)
    hidden_h, hidden_l = decompose_batch(state, lift(state, hsi), lidar)
    assert hidden_h.dtype == hidden_l.dtype == np.float32
    assert hidden_h.shape == hidden_l.shape == (3, 9, state.config.H)
    after = parameters(state)
    assert list(after) == list(before)
    for name, tensor in after.items():
        assert tensor.data is arrays[name] and tensor.grad is None, name
        assert tensor.data.dtype == np.float32, name
        np.testing.assert_array_equal(tensor.data, values[name])


@pytest.mark.parametrize("c_spec, over", [
    (4, {}),
    (144, dict({name: getattr(TrainConfig(), name) for name in TINY}, batch=3)),
], ids=["tiny", "144-bands"])
def test_train_step_leaks_no_float64(c_spec, over):
    # float64 data (the default of rng.standard_normal) goes in; every
    # node of the graph, constants included, every gradient and the Adam
    # moments must come out in the parameters' float32
    state = tiny_state(seed=25, c_spec=c_spec, **over)
    cfg = state.config
    hsi, lidar = tiny_data(26, n=cfg.batch, b=cfg.b, c_spec=c_spec)
    params = parameters(state)
    total, _ = forward_batch(state, hsi, lidar, np.random.default_rng(27),
                             config_weights(state))
    nodes = ad._topo(total)
    assert {node.data.dtype for node in nodes} == {np.dtype(np.float32)}
    ad.backward(total)
    assert all(node.grad is None or node.grad.dtype == np.float32 for node in nodes)
    for name, tensor in params.items():
        assert tensor.data.dtype == np.float32, name
        assert tensor.grad is not None and tensor.grad.dtype == np.float32, name
    opt = training.AdamState()
    training.train_step(state, opt, params, hsi, lidar, np.random.default_rng(28),
                        config_weights(state))
    for name, tensor in params.items():
        assert tensor.data.dtype == np.float32, name
    assert state.vector.dtype == opt.m.dtype == opt.v.dtype == np.float32


def test_fused_features_144_bands_match_float64(monkeypatch, tmp_path):
    from hdcaps.evaluation import fuse_features

    hsi, elev, labels = dataio.gen_synthetic(8, 9, 3, 144, np.random.default_rng(28))
    ps = dataio.extract_patches(hsi, elev, labels, 5)
    save_checkpoint(init_model(TrainConfig(), 144, np.random.default_rng(29)),
                    str(tmp_path))
    state = load_checkpoint(str(tmp_path))
    monkeypatch.setattr(model, "_EXTRACT_BATCH", 32)
    got = fused_features(state, ps.hsi, ps.lidar)
    assert got.dtype == np.float32
    want = fuse_features(*graph_mode_feature_maps(state, ps.hsi, ps.lidar), 12)
    assert max_rel_err(got, want) <= FLOAT32_REL_TOL


@pytest.mark.parametrize("seed", range(4))
def test_fused_features_float32_margin_on_probe_scene(seed):
    # the thinnest known case: the 24 x 25, 144-band scene and the
    # init_model checkpoint of the benchmark's `evaluate` probe, from the
    # same streams, read back as float32 as read_scene returns a scene.
    # Measured 8.6e-7, 6.9e-7, 3.7e-7 and 3.0e-7 for seeds 0-3.
    hsi, elev, labels = dataio.gen_synthetic(24, 25, 4, 144,
                                             np.random.default_rng([seed, 0]))
    ps = dataio.extract_patches(hsi.astype(np.float32), elev.astype(np.float32),
                                labels, 5)
    state = init_model(TrainConfig(), 144, np.random.default_rng([seed, 1]))
    got = fused_features(state, ps.hsi, ps.lidar)
    model.bind_vector(state, np.float64)
    want = fused_features(state, ps.hsi, ps.lidar)
    assert want.dtype == np.float32
    assert max_rel_err(got, want) <= FLOAT32_REL_TOL


def fused_rows(state, hidden_h, hidden_l, center):
    """The float64 fused rows of one batch of (B, X, H) hidden maps:
    fuse_features pools each branch's map to its center and mean rows,
    then that branch's feature head maps the two rows."""
    from hdcaps.evaluation import fuse_features

    pooled = fuse_features(hidden_h, hidden_l, center)
    pooled = pooled.reshape(len(pooled), 4, state.config.H)
    rows = np.concatenate([feature_map(state.enc_hsi, pooled[:, :2]).data,
                           feature_map(state.enc_lidar, pooled[:, 2:]).data], axis=1)
    return rows.reshape(len(rows), -1)


def test_fused_features_are_float32_rounding_of_fuse_features(monkeypatch):
    state = tiny_state(seed=30, n_blocks=2)
    hsi, lidar = tiny_stack(31, n=7)
    monkeypatch.setattr(model, "_EXTRACT_BATCH", 3)
    got = fused_features(state, hsi, lidar)
    assert got.dtype == np.float32
    want = np.concatenate([
        fused_rows(state, *decompose_batch(state, lift(state, hsi[i:i + 3]),
                                           lidar[i:i + 3]),
                   lidar.shape[1] // 2)
        for i in range(0, 7, 3)])
    assert want.dtype == np.float64
    np.testing.assert_array_equal(got, want.astype(np.float32))


def test_fused_features_apply_the_feature_head_to_two_rows(monkeypatch):
    # the head never sees a (B, X, H) map on the extract path, only each
    # batch's pooled center and mean rows, in float64
    state = tiny_state(seed=32, n_blocks=2)
    hsi, lidar = tiny_stack(31, n=7)
    seen = []
    real = model.feature_map

    def recording(params, hidden):
        seen.append((np.shape(hidden), np.asarray(hidden).dtype))
        return real(params, hidden)

    monkeypatch.setattr(model, "feature_map", recording)
    monkeypatch.setattr(model, "_EXTRACT_BATCH", 3)
    fused_features(state, hsi, lidar)
    h, f64 = state.config.H, np.dtype(np.float64)
    assert seen == [((b, 2, h), f64) for b in (3, 3, 1) for _ in range(2)]


def per_window_features(state, hsi, lidar, batch):
    """fused_features computed by lifting every window on its own: each
    batch's raw windows go through extract_preliminary_batch, then
    decompose_batch, fuse_features and the feature heads."""
    center = lidar.shape[1] // 2
    return np.concatenate([
        fused_rows(state, *decompose_batch(state, lift(state, hsi[i:i + batch]),
                                           lidar[i:i + batch]), center)
        for i in range(0, len(lidar), batch)]).astype(np.float32)


def labelled_scene(case, c_spec):
    """A 9 x 10 scene, every pixel labelled ("full") or three ("sparse"),
    one of them in a corner, so its window mirrors on two sides, and
    two whose windows overlap."""
    hsi, elev, labels = dataio.gen_synthetic(9, 10, 3, c_spec,
                                             np.random.default_rng(33))
    if case == "full":
        return hsi, elev, np.ones_like(labels)
    labels = np.zeros_like(labels)
    labels[0, 9] = labels[6, 2] = 1
    labels[4, 5] = 2
    return hsi, elev, labels


SCENE_CASES = [("full", 3, 6), ("full", 5, 6), ("sparse", 5, 6), ("full", 5, 144)]


def scene_state(b, c_spec):
    if c_spec == 144:
        return init_model(TrainConfig(), c_spec, np.random.default_rng(34))
    return tiny_state(seed=34, c_spec=c_spec, b=b, n_blocks=2)


@pytest.mark.parametrize("case, b, c_spec", SCENE_CASES)
def test_fused_features_equal_per_window_lift(monkeypatch, case, b, c_spec):
    hsi, elev, labels = labelled_scene(case, c_spec)
    ps = dataio.extract_patches(hsi, elev, labels, b)
    state = scene_state(b, c_spec)
    want = per_window_features(state, ps.hsi, ps.lidar, 4)
    monkeypatch.setattr(model, "_EXTRACT_BATCH", 4)
    np.testing.assert_array_equal(fused_features(state, ps.hsi, ps.lidar), want)
    # one row of pixels per lift block: the blocks stitch to the same scene
    monkeypatch.setattr(model, "_LIFT_BLOCK_BYTES", 1)
    np.testing.assert_array_equal(fused_features(state, ps.hsi, ps.lidar), want)


@pytest.mark.parametrize("case", ["full", "sparse"])
def test_fused_features_lifts_each_covered_pixel_once(monkeypatch, case):
    b = 5
    hsi, elev, labels = labelled_scene(case, 6)
    ps = dataio.extract_patches(hsi, elev, labels, b)
    # window cells past the border are mirrored into the scene, so a
    # pixel that two windows reach, directly or mirrored, counts once
    pad_rows, pad_cols = (np.pad(np.arange(n), b // 2, mode="reflect")
                          for n in hsi.shape[:2])
    covered = {(pad_rows[row + i], pad_cols[col + j])
               for row, col in zip(ps.rows, ps.cols)
               for i in range(b) for j in range(b)}
    pixels = []
    real = model.extract_preliminary_batch

    def counting(params, spectra, g, d_cap):
        pixels.append(int(np.prod(np.shape(spectra)[:-1])))
        return real(params, spectra, g, d_cap)

    monkeypatch.setattr(model, "extract_preliminary_batch", counting)
    monkeypatch.setattr(model, "_EXTRACT_BATCH", 2)
    fused_features(scene_state(b, 6), ps.hsi, ps.lidar)
    assert sum(pixels) == len(covered)
    # the scene fits one lift block: one call, not one per batch of 2
    assert len(pixels) == 1


def test_fused_features_rejects_ndarray_patches():
    state = tiny_state(seed=19)
    hsi, lidar = tiny_stack(20)
    with pytest.raises(TypeError, match=r"PatchStack \(pass PatchSet.hsi\), got ndarray"):
        fused_features(state, np.asarray(hsi), lidar)


def test_fused_features_rejects_mismatched_lengths():
    state = tiny_state(seed=21)
    hsi, lidar = tiny_stack(22, n=4)
    with pytest.raises(ValueError, match=r"4 patches.*3"):
        fused_features(state, hsi, lidar[:3])


def test_fused_features_rejects_wrong_band_count():
    state = tiny_state(seed=21, c_spec=5)
    hsi, lidar = tiny_stack(22, n=4)
    with pytest.raises(ValueError, match=r"hsi_patches have 4 channels but the model takes 5"):
        fused_features(state, hsi, lidar)


def call_forward(state, hsi, lidar):
    return forward_batch(state, hsi, lidar, np.random.default_rng(0),
                         config_weights(state))


@pytest.mark.parametrize("run", [call_forward, decompose_batch])
@pytest.mark.parametrize("n_lidar, x_lidar, message, hsi_shape, width", [
    (3, 9, r"hsi_patches has 5 patches but lidar_points has 3", (5, 3, 3, 4), 3),
    (5, 16, r"3x3 windows but lidar_points has 16 points per patch", (5, 3, 3, 4), 3),
    (5, 9, r"lidar_points \(B, b\*b, 3\), got .* and \(5, 9, 4\)", (5, 3, 3, 4), 4),
    (0, 9, r"hsi_patches has no patches", (0, 3, 3, 4), 3),
    # one pixel of 8 bands is as many values as two of 4: the band check
    # must see the batch before anything reshapes it to the model's bands
    (3, 1, r"hsi_patches have 8 channels but the model takes 4", (3, 1, 1, 8), 3),
])
def test_batch_rejects_mismatched_shapes(run, n_lidar, x_lidar, message, hsi_shape, width):
    state = tiny_state(seed=25)
    hsi = np.random.default_rng(26).standard_normal(hsi_shape)
    if run is decompose_batch:
        # the model lifts to d_h = 4, so 8-band patches stand in for
        # 8-wide capsule points
        hsi = lift(state, hsi) if hsi_shape[3] == 4 else hsi
        message = message.replace("hsi_patches", "lifted_patches")
    lidar = np.random.default_rng(27).standard_normal((n_lidar, x_lidar, width))
    with pytest.raises(ValueError, match=message):
        run(state, hsi, lidar)


def test_batch_of_one_step_equals_single_pair_step():
    hsi, lidar = tiny_data(10, n=1)
    state_a = tiny_state(seed=11)
    state_b = tiny_state(seed=11)
    params_a = parameters(state_a)
    params_b = parameters(state_b)
    weights = config_weights(state_a)

    opt_a = training.AdamState()
    training.train_step(state_a, opt_a, params_a, hsi, lidar,
                        np.random.default_rng(12), weights)

    training.zero_grads(params_b)
    total, _ = forward_batch(state_b, hsi[:1], lidar[:1],
                             np.random.default_rng(12), weights)
    ad.backward(total)
    grad = np.concatenate([t.grad.reshape(-1) for t in params_b.values()])
    training.adam_step(state_b.vector, grad, training.AdamState(), state_b.config.lr)
    for name in params_a:
        np.testing.assert_allclose(params_a[name].data, params_b[name].data,
                                   atol=1e-12)


def test_two_steps_decrease_fixed_batch_loss():
    hits = 0
    for seed in range(100):
        state = tiny_state(seed=seed)
        weights = config_weights(state)
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


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_train_divergence_aborts_with_name():
    state = tiny_state(seed=13)
    params = parameters(state)
    params["enc_hsi.lift_w"].data[0, 0] = np.inf
    hsi, lidar = tiny_data(14)
    with pytest.raises(DivergenceError, match=r"at epoch 0, step 0: ") as info:
        training.train(state, hsi, lidar, np.random.default_rng(0))
    assert (info.value.epoch, info.value.step) == (0, 0)


def test_train_step_nan_chamfer_target_names_total_loss():
    # a NaN in the elevation branch's chamfer target reaches the kernel
    state = tiny_state(seed=13)
    hsi, lidar = tiny_data(14)
    lidar[1, 0, 2] = np.nan
    with pytest.raises(DivergenceError) as info:
        training.train_step(state, training.AdamState(), parameters(state), hsi,
                            lidar, np.random.default_rng(0), config_weights(state))
    assert info.value.tensor_name == "total loss"


def test_train_divergence_names_epoch_and_step(monkeypatch):
    # a finite first epoch, then a non-finite loss at the second step of
    # the second epoch: the error says where, counted from 0
    state = tiny_state(seed=13, epochs=3)
    hsi, lidar = tiny_data(14, n=6)
    calls = []
    real_forward = training.forward_batch

    def forward(*args, **kwargs):
        total, report = real_forward(*args, **kwargs)
        calls.append(report)
        if len(calls) == 5:
            report.total = float("nan")
        return total, report

    monkeypatch.setattr(training, "forward_batch", forward)
    with pytest.raises(DivergenceError) as info:
        training.train(state, hsi, lidar, np.random.default_rng(0))
    err = info.value
    assert (err.tensor_name, err.epoch, err.step) == ("total loss", 1, 1)
    assert str(err) == ("training diverged at epoch 1, step 1: training loss "
                        "is not finite (tensor: total loss)")


def test_train_rejects_empty_or_mismatched():
    state = tiny_state()
    hsi, lidar = tiny_data(15)
    with pytest.raises(ValueError):
        training.train(state, hsi[:0], lidar[:0], np.random.default_rng(0))
    with pytest.raises(ValueError):
        training.train(state, hsi, lidar[:2], np.random.default_rng(0))


def test_train_consumes_rng_in_documented_order():
    # the module docstring's order: init, then for each epoch one shuffle
    # followed by the rotations of each of its steps; a hand-unrolled
    # loop that draws in that order must give the same bits
    hsi, lidar = tiny_data(17, n=5)
    cfg = TrainConfig(epochs=3, seed=0, **TINY)
    rng = np.random.default_rng(18)
    state = init_model(cfg, 4, rng)
    history = training.train(state, hsi, lidar, rng)

    rng = np.random.default_rng(18)
    want = init_model(cfg, 4, rng)
    params, opt = parameters(want), training.AdamState()
    rows = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(5)
        reports = [training.train_step(want, opt, params, hsi[idx], lidar[idx],
                                       rng, config_weights(want))
                   for idx in (order[:2], order[2:4], order[4:])]
        sums = [sum(column) for column in zip(*map(astuple, reports))]
        rows.append({"epoch": epoch, **{f.name: total / 3 for f, total
                                        in zip(fields(LossReport), sums)}})
    assert history == rows
    assert np.array_equal(state.vector, want.vector)


def test_report_fields_name_the_csv_columns():
    # the CSV header is built from LossReport's fields; pin their order
    names = [f.name for f in fields(LossReport)]
    assert names == ["equ_hsi", "inv_hsi", "cham_hsi", "equ_lidar",
                     "inv_lidar", "cham_lidar", "kl", "total"]
    report = LossReport(*[float(i) for i in range(len(names))])
    assert list(asdict(report).items()) == [(n, float(i)) for i, n in enumerate(names)]


def test_grad_check_five_seeds_tiny_config():
    for seed in range(1, 6):
        max_rel = training.grad_check(seed=seed, n_samples=4)
        assert isinstance(max_rel, float) and max_rel < 1e-4, f"seed {seed}: {max_rel}"


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
    max_rel = training.grad_check(seed=0, n_samples=4)
    assert max_rel > 1e-2


def test_zero_weights_random_biases_near_linear():
    # with every weight matrix zeroed the loss is nearly linear in each
    # parameter, so finite differences and analytic gradients agree
    # tightly; the parameters are float64, as in grad_check, so the whole
    # pass runs in float64
    state = tiny_state(seed=20)
    model.bind_vector(state, np.float64)
    params = parameters(state)
    rng = np.random.default_rng(21)
    for name, tensor in params.items():
        leaf = name.split(".")[-1]
        if leaf == "b" or leaf.endswith("_b") or leaf in ("b1", "b2"):
            tensor.data[...] = 0.1 * rng.standard_normal(tensor.data.shape)
        else:
            tensor.data[...] = 0.0
    hsi, lidar = tiny_data(22, n=2)
    weights = config_weights(state)

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
    assert sorted(os.listdir(tmp_path / "ckpt")) == ["manifest.json", "params.dten"]
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    src = parameters(state)
    dst = parameters(loaded)
    assert list(src) == list(dst)
    for name in src:
        assert src[name].data.dtype == dst[name].data.dtype == np.float32, name
        np.testing.assert_array_equal(src[name].data, dst[name].data)
    assert loaded.config.to_dict() == state.config.to_dict()


def test_init_model_is_float32_rounding_of_float64_draws(tmp_path):
    # init_model draws in float64, in the order below, then rounds once;
    # so the generator's stream and an untrained checkpoint's bytes are
    # those of the float64 draws written as float32
    cfg = TrainConfig(**TINY)
    c_spec, d_h = 4, cfg.d_h
    rng = np.random.default_rng(32)
    groups = [
        init_capsule_block(c_spec, cfg.G, cfg.d_cap, rng),
        init_encoder(d_h, cfg.H, cfg.n_blocks, cfg.K, cfg.C, rng),
        init_encoder(3, cfg.H, cfg.n_blocks, cfg.K, cfg.C, rng),
        init_decoder(cfg.C, d_h, c_spec, cfg.m, cfg.H, rng, anchored=False),
        init_decoder(cfg.C, 3, 3, cfg.m, cfg.H, rng, anchored=True),
    ]
    draws = [value.data for group in groups for value in group.values()
             if isinstance(value, ad.Tensor)]
    assert all(d.dtype == np.float64 for d in draws)
    state = init_model(cfg, c_spec, np.random.default_rng(32))
    params = list(parameters(state).values())
    assert len(params) == len(draws)
    for tensor, draw in zip(params, draws):
        assert tensor.data.dtype == np.float32
        np.testing.assert_array_equal(tensor.data, draw.astype(np.float32))
    save_checkpoint(state, str(tmp_path / "ckpt"))
    dataio.write_dten(str(tmp_path / "draws.dten"),
                      np.concatenate([d.reshape(-1) for d in draws]))
    assert ((tmp_path / "ckpt" / "params.dten").read_bytes()
            == (tmp_path / "draws.dten").read_bytes())


def test_checkpoint_overwrite_with_smaller_model(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(tiny_state(seed=25, n_blocks=3), str(ckpt))
    small = tiny_state(seed=26, n_blocks=1)
    save_checkpoint(small, str(ckpt))
    loaded = load_checkpoint(str(ckpt))
    assert loaded.config.n_blocks == 1
    assert list(parameters(loaded)) == list(parameters(small))
    for name, tensor in parameters(small).items():
        np.testing.assert_array_equal(parameters(loaded)[name].data, tensor.data)


def snapshot(root):
    """Every path under root, mapped to its bytes (None for a directory)."""
    return {path.relative_to(root): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def test_checkpoint_save_touches_only_its_two_files(tmp_path):
    # a version-1 layout (one file per parameter, names listed by the
    # manifest) plus unrelated files: a save replaces manifest.json, adds
    # params.dten and leaves every other file as it was, unread
    ckpt = tmp_path / "ckpt"
    (ckpt / "sub").mkdir(parents=True)
    (tmp_path / "outside.dten").write_bytes(b"x")
    (ckpt / "sub" / "inner.dten").write_bytes(b"x")
    (ckpt / "notes.txt").write_bytes(b"x")
    (ckpt / "dir.dten").mkdir()
    old = {name: name + ".dten" for name in parameters(tiny_state(seed=27))}
    for fname in old.values():
        (ckpt / fname).write_bytes(b"old tensor")
    old.update({"p0": "../outside.dten", "p1": "sub/inner.dten", "p2": "notes.txt"})
    (ckpt / "manifest.json").write_text(json.dumps({
        "format": "hdcaps-checkpoint", "version": 1, "params": old}))
    before = snapshot(tmp_path)
    for seed in (27, 28):
        save_checkpoint(tiny_state(seed=seed), str(ckpt))
        after = snapshot(tmp_path)
        changed = {path for path in after if after[path] != before.get(path, "")}
        assert set(before) - set(after) == set()
        assert changed == {Path("ckpt", "manifest.json"), Path("ckpt", "params.dten")}
    load_checkpoint(str(ckpt))


@pytest.mark.parametrize("old_manifest", ["{not json", "[1, 2]", '{"params": [1]}'])
def test_checkpoint_overwrite_tolerates_malformed_manifest(tmp_path, old_manifest):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "manifest.json").write_text(old_manifest)
    state = tiny_state(seed=28)
    save_checkpoint(state, str(ckpt))
    assert sorted(os.listdir(ckpt)) == ["manifest.json", "params.dten"]
    load_checkpoint(str(ckpt))


def edit_manifest(ckpt, **fields):
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest.update(fields)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def test_load_checkpoint_rejects_version_1(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(tiny_state(seed=29), str(ckpt))
    edit_manifest(ckpt, version=1)
    with pytest.raises(ValueError, match="checkpoint version 1 is not supported"):
        load_checkpoint(str(ckpt))


def test_load_checkpoint_rejects_wrong_length_params(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(tiny_state(seed=30), str(ckpt))
    vector = dataio.read_dten(str(ckpt / "params.dten"))
    size = vector.shape[0]
    dataio.write_dten(str(ckpt / "params.dten"), vector[:-1])
    with pytest.raises(ValueError, match=rf"\({size - 1},\).*\({size},\)"):
        load_checkpoint(str(ckpt))


def test_load_checkpoint_rejects_reordered_names(tmp_path):
    ckpt = tmp_path / "ckpt"
    save_checkpoint(tiny_state(seed=31), str(ckpt))
    names = json.loads((ckpt / "manifest.json").read_text())["params"]
    edit_manifest(ckpt, params=names[1:] + names[:1])
    with pytest.raises(ValueError, match="params must list"):
        load_checkpoint(str(ckpt))


def test_load_checkpoint_names_the_first_non_finite_parameter(tmp_path):
    # one finite check covers the whole vector; when it fails, the error
    # names the first non-finite parameter in parameters() order
    ckpt = tmp_path / "ckpt"
    state = tiny_state(seed=32)
    save_checkpoint(state, str(ckpt))
    params = parameters(state)
    names = list(params)
    middle = names[len(names) // 2]
    params[middle].data.reshape(-1)[-1] = np.nan
    params[names[-1]].data.reshape(-1)[0] = np.inf
    dataio.write_dten(str(ckpt / "params.dten"), state.vector)
    path = str(ckpt / "params.dten")
    with pytest.raises(ValueError) as info:
        load_checkpoint(str(ckpt))
    assert str(info.value) == f"{path}: parameter {middle} holds non-finite values"


def test_load_checkpoint_drops_adam_keys_of_older_manifests(tmp_path):
    # manifests written while Adam's constants were config fields hold
    # them; they load, whatever the values, to the model saved without them
    plain, older = tmp_path / "plain", tmp_path / "older"
    state = tiny_state(seed=35)
    training.train(state, *tiny_data(36), np.random.default_rng(37))
    save_checkpoint(state, str(plain))
    save_checkpoint(state, str(older))
    config = json.loads((older / "manifest.json").read_text())["config"]
    assert "adam_eps" not in config
    edit_manifest(older, config={**config, "adam_beta1": 0.9, "adam_beta2": 0.5,
                                 "adam_eps": 1e-8})
    hsi, lidar = tiny_stack(38)
    want = fused_features(load_checkpoint(str(plain)), hsi, lidar)
    loaded = load_checkpoint(str(older))
    assert loaded.config == state.config
    assert fused_features(loaded, hsi, lidar).tobytes() == want.tobytes()
    # only those three keys are dropped
    edit_manifest(older, config={**config, "adam_gamma": 0.5})
    with pytest.raises(ValueError, match=r"unknown config keys: \['adam_gamma'\]"):
        load_checkpoint(str(older))
