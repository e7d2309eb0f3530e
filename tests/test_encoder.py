"""Encoder fixtures: ACN moments, a hand-traced block, aggregation."""

import numpy as np
import pytest

from hdcaps import autodiff as ad
from hdcaps import encoder, geometry

ACN_EPS = 1e-5


def make_encoder(d_in, h, n_blocks, k, c, seed=0):
    return encoder.init_encoder(d_in, h, n_blocks, k, c,
                                np.random.default_rng(seed))


def acn(feats, weights):
    """ACN of one (X, H) point set with (X,) weights, as a batch of one."""
    out = ad.acn(ad.Tensor(feats[None]), ad.Tensor(weights[None, :, None]),
                 encoder.ACN_EPS)
    return out.data[0]


def encode(params, points):
    """Attention and feature maps of one (X, D) point set, as a batch of one."""
    hidden = encoder.encode_batch(params, ad.Tensor(points[None]))
    attn = encoder.attention_map(params, hidden)
    feats = encoder.feature_map(params, hidden)
    return attn.data[0], feats.data[0]


def aggregate(attn, feats, points):
    poses, desc = encoder.aggregate(ad.Tensor(attn[None]), ad.Tensor(feats[None]),
                                    ad.Tensor(points[None]))
    return poses.data[0], desc.data[0]


def test_acn_constant_rows_zero():
    feats = np.ones((4, 3)) * 2.5
    out = acn(feats, np.ones(4))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_acn_uniform_123_fixture():
    out = acn(np.array([[1.0], [2.0], [3.0]]), np.ones(3))
    # mu = 2, sigma^2 = 2/3: (x - 2) / sqrt(2/3 + eps)
    np.testing.assert_allclose(out[:, 0], [-1.22474, 0.0, 1.22474], atol=1e-3)


def test_acn_one_hot_weights_fixture():
    out = acn(np.array([[5.0], [9.0], [-9.0]]),
                                np.array([1.0, 0.0, 0.0]))
    # moments collapse onto the selected point: mu = 5, var = 0
    assert out[0, 0] == 0.0
    np.testing.assert_allclose(out[1, 0], 4.0 / np.sqrt(ACN_EPS), rtol=1e-12)
    np.testing.assert_allclose(out[2, 0], -14.0 / np.sqrt(ACN_EPS), rtol=1e-12)


def test_acn_weighted_moments_against_numpy():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(6, 4))
    w = rng.uniform(0.1, 1.0, size=6)
    out = acn(feats, w)
    mu = (w[:, None] * feats).sum(0) / w.sum()
    var = (w[:, None] * (feats - mu) ** 2).sum(0) / w.sum()
    np.testing.assert_allclose(out, (feats - mu) / np.sqrt(var + ACN_EPS),
                               atol=1e-12)


def hand_trace(points, lift_w, lift_b, att_w, lin_w, lin_b,
               head_aw, head_ab, head_fw, head_fb):
    """Straight-line recomputation of a 1-block encoder in plain numpy."""
    h = points @ lift_w + lift_b
    logits = (h @ att_w)[:, 0]
    e = np.exp(logits - logits.max())
    w = (e / e.sum())[:, None]
    mu = (w * h).sum(0) / w.sum()
    var = (w * (h - mu) ** 2).sum(0) / w.sum()
    z = (h - mu) / np.sqrt(var + ACN_EPS)
    h = h + np.maximum(z @ lin_w + lin_b, 0.0)
    logits_a = h @ head_aw + head_ab
    ea = np.exp(logits_a - logits_a.max(axis=1, keepdims=True))
    attn = ea / ea.sum(axis=1, keepdims=True)
    feats = h @ head_fw + head_fb
    return attn, feats


def test_encode_matches_hand_trace():
    # tiny instance: X=2, D=1, H=2, n_blocks=1, K=2, C=1, hand-set weights
    params = {
        "lift_w": ad.Tensor(np.array([[1.0, -1.0]])),
        "lift_b": ad.Tensor(np.array([0.5, 0.0])),
        "b0_att_w": ad.Tensor(np.array([[1.0], [0.0]])),
        "b0_lin_w": ad.Tensor(np.array([[1.0, 0.5], [-0.5, 1.0]])),
        "b0_lin_b": ad.Tensor(np.array([0.1, -0.2])),
        "att_w": ad.Tensor(np.array([[1.0, -1.0], [0.5, 0.5]])),
        "att_b": ad.Tensor(np.array([0.0, 0.25])),
        "feat_w": ad.Tensor(np.array([[2.0], [1.0]])),
        "feat_b": ad.Tensor(np.array([-1.0])),
        "n_blocks": 1,
    }
    points = np.array([[1.0], [3.0]])
    attn, feats = encode(params, points)
    want_a, want_f = hand_trace(
        points,
        params["lift_w"].data, params["lift_b"].data,
        params["b0_att_w"].data,
        params["b0_lin_w"].data, params["b0_lin_b"].data,
        params["att_w"].data, params["att_b"].data,
        params["feat_w"].data, params["feat_b"].data,
    )
    np.testing.assert_allclose(attn, want_a, atol=1e-12)
    np.testing.assert_allclose(feats, want_f, atol=1e-12)
    # frozen spot values from an independent evaluation of the same trace
    np.testing.assert_allclose(attn[0], [0.9399133498, 0.0600866502],
                               atol=1e-6)
    np.testing.assert_allclose(feats[:, 0], [2.1591247333, 4.3036251844],
                               atol=1e-6)


def test_encode_zero_attention_head_uniform():
    params = make_encoder(3, 8, 2, 5, 4)
    params["att_w"] = ad.Tensor(np.zeros_like(params["att_w"].data))
    params["att_b"] = ad.Tensor(np.zeros_like(params["att_b"].data))
    pts = np.random.default_rng(1).normal(size=(9, 3))
    attn, _ = encode(params, pts)
    np.testing.assert_allclose(attn, 1.0 / 5.0, atol=1e-12)


def test_encode_rows_stochastic_positive():
    params = make_encoder(3, 16, 3, 4, 6, seed=2)
    pts = np.random.default_rng(3).normal(size=(25, 3)) * 5
    attn, feats = encode(params, pts)
    np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(attn > 0)
    assert np.all(np.isfinite(feats))


def test_encode_permutation_equivariance():
    params = make_encoder(4, 12, 2, 3, 5, seed=4)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(10, 4))
    perm = rng.permutation(10)
    a0, f0 = encode(params, pts)
    a1, f1 = encode(params, pts[perm])
    np.testing.assert_allclose(a1, a0[perm], atol=1e-9)
    np.testing.assert_allclose(f1, f0[perm], atol=1e-9)


def test_feature_head_of_pooled_rows_equals_pooled_feature_map():
    # the head is affine, so the center and mean rows of F = h W + b are
    # the head of the center and mean rows of h; the extract path relies
    # on this to apply the head to two rows per patch instead of X
    params = make_encoder(3, 16, 2, 4, 6, seed=14)
    pts = np.random.default_rng(15).normal(size=(5, 25, 3)) * 3
    hidden = encoder.encode_batch(params, ad.Tensor(pts)).data
    feats = encoder.feature_map(params, ad.as_tensor(hidden)).data
    pooled = np.stack([hidden[:, 12], hidden.mean(axis=1)], axis=1)
    got = encoder.feature_map(params, ad.as_tensor(pooled)).data
    want = np.stack([feats[:, 12], feats.mean(axis=1)], axis=1)
    assert got.dtype == np.float64 and got.shape == (5, 2, 6)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_aggregate_uniform_centroid():
    attn = np.full((2, 3), 1.0 / 3.0)
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    feats = np.array([[1.0], [5.0]])
    poses, desc = aggregate(attn, feats, pts)
    np.testing.assert_allclose(poses, [[1.0, 0.0]] * 3, atol=1e-7)
    np.testing.assert_allclose(desc, [[3.0]] * 3, atol=1e-7)


def test_aggregate_one_hot_selection():
    attn = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    pts = np.array([[1.0], [2.0], [7.0]])
    feats = np.array([[10.0], [20.0], [70.0]])
    poses, desc = aggregate(attn, feats, pts)
    np.testing.assert_allclose(poses[:, 0], [2.0, 1.0], rtol=1e-7)
    np.testing.assert_allclose(desc[:, 0], [20.0, 10.0], rtol=1e-7)


def test_aggregate_weighted_average_fixture():
    attn = np.array([[0.2, 0.8], [0.3, 0.1], [0.5, 0.1]])
    pts = np.array([[1.0], [2.0], [10.0]])
    feats = pts.copy()
    poses, _ = aggregate(attn, feats, pts)
    # column 0: (0.2*1 + 0.3*2 + 0.5*10) / 1.0 = 5.8
    np.testing.assert_allclose(poses[0, 0], 5.8, rtol=1e-7)


def test_aggregate_convex_hull():
    rng = np.random.default_rng(6)
    attn = rng.dirichlet(np.ones(4), size=8)
    pts = rng.normal(size=(8, 3))
    feats = rng.normal(size=(8, 2))
    poses, desc = aggregate(attn, feats, pts)
    assert np.all(poses.min(axis=0) >= pts.min(axis=0) - 1e-9)
    assert np.all(poses.max(axis=0) <= pts.max(axis=0) + 1e-9)
    assert np.all(desc.min(axis=0) >= feats.min(axis=0) - 1e-9)
    assert np.all(desc.max(axis=0) <= feats.max(axis=0) + 1e-9)


def test_aggregate_rotation_linearity():
    rng = np.random.default_rng(7)
    attn = rng.dirichlet(np.ones(3), size=6)
    pts = rng.normal(size=(6, 4))
    feats = rng.normal(size=(6, 2))
    rot = geometry.sample_rotations(4, 1, rng)[0]
    poses, _ = aggregate(attn, feats, pts)
    poses_rot, desc_rot = aggregate(attn, feats, pts @ rot.T)
    np.testing.assert_allclose(poses_rot, poses @ rot.T, atol=1e-10)
    _, desc = aggregate(attn, feats, pts)
    np.testing.assert_allclose(desc_rot, desc, atol=1e-12)


def test_aggregate_encode_permutation_invariance():
    params = make_encoder(3, 10, 2, 4, 5, seed=8)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(12, 3))
    perm = rng.permutation(12)
    a0, f0 = encode(params, pts)
    p0, d0 = aggregate(a0, f0, pts)
    a1, f1 = encode(params, pts[perm])
    p1, d1 = aggregate(a1, f1, pts[perm])
    np.testing.assert_allclose(p1, p0, atol=1e-9)
    np.testing.assert_allclose(d1, d0, atol=1e-9)


def test_aggregate_rejects_mismatched_rows():
    # the weighted means contract over the points axis, which never broadcasts
    half = np.ones((3, 2)) / 2
    for attn, feats, pts in ((half, np.ones((4, 1)), np.ones((3, 2))),
                             (half, np.ones((3, 1)), np.ones((4, 2))),
                             (half[:1], np.ones((3, 1)), np.ones((3, 2)))):
        with pytest.raises(ValueError):
            aggregate(attn, feats, pts)


def test_encoder_param_gradients_fd():
    params = make_encoder(2, 4, 2, 3, 2, seed=10)
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(6, 2))
    ca = rng.normal(size=(6, 3))
    cf = rng.normal(size=(6, 2))

    def loss():
        hidden = encoder.encode_batch(params, ad.as_tensor(pts[None]))
        a = encoder.attention_map(params, hidden)
        f = encoder.feature_map(params, hidden)
        return ad.tsum(ad.mul(a, ca[None])) + ad.tsum(ad.mul(f, cf[None]))

    out = loss()
    ad.backward(out)
    h = 1e-5
    names = [k for k, v in params.items() if isinstance(v, ad.Tensor)]
    for name in names:
        tensor = params[name]
        flat = tensor.data.reshape(-1)
        idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + h
            fp = float(loss().data)
            flat[idx] = orig - h
            fm = float(loss().data)
            flat[idx] = orig
            num = (fp - fm) / (2.0 * h)
            ana = tensor.grad.reshape(-1)[idx]
            rel = abs(ana - num) / max(1e-8, abs(ana) + abs(num))
            assert rel < 1e-4, f"{name}[{idx}]: {ana} vs {num}"
