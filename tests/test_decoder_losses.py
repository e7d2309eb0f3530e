"""Decoder conditioning modes and the self-supervision loss terms."""

from dataclasses import asdict

import numpy as np
import pytest

from hdcaps import autodiff as ad
from hdcaps import decoder, geometry, kernels, losses
from hdcaps.config import TrainConfig
from hdcaps.model import forward_batch, init_model


def decode(params, poses, desc):
    """Decode one set of (K, D) poses and (K, C) descriptors as a batch of one."""
    return decoder.decode(params, ad.Tensor(poses[None]), ad.Tensor(desc[None])).data[0]


def loss_equ(rot, poses, rotated):
    out = losses.loss_equivariance(np.asarray(rot)[None], ad.Tensor(poses[None]),
                                   ad.Tensor(rotated[None]))
    return float(out.data)


def loss_inv(desc, rotated):
    return float(losses.loss_invariance(ad.Tensor(desc[None]),
                                        ad.Tensor(rotated[None])).data)


def loss_kl(a, b):
    return float(losses.loss_kl(ad.Tensor(a[None]), ad.Tensor(b[None])).data)


def tiny_batch(seed):
    """A tiny model (b=3, C_spec=4, K=2, C=3) and a batch of two patch pairs."""
    cfg = TrainConfig(K=2, C=3, b=3, H=8, n_blocks=1, m=2, G=2, d_cap=2,
                      batch=2, seed=seed)
    state = init_model(cfg, 4, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    return state, rng.standard_normal((2, 3, 3, 4)), rng.standard_normal((2, 9, 3))


def weighted_terms(rep, w):
    """The three branch terms of a LossReport, mixed by the LossWeights w
    in forward_batch's order and in its float32, the parameters' dtype."""
    t = {name: np.float32(value) for name, value in asdict(rep).items()}
    alpha, beta, gamma = np.float32(w.alpha), np.float32(w.beta), np.float32(w.gamma)
    return float((t["equ_hsi"] + t["inv_hsi"] + t["cham_hsi"]) * alpha
                 + (t["equ_lidar"] + t["inv_lidar"] + t["cham_lidar"]) * beta
                 + t["kl"] * gamma)


def zeroed(params):
    for key in ("w1", "b1", "w2", "b2"):
        params[key] = ad.Tensor(np.zeros_like(params[key].data))
    return params


def test_anchored_zero_weights_repeats_poses():
    rng = np.random.default_rng(0)
    params = zeroed(decoder.init_decoder(4, 3, 3, m=2, h=8, rng=rng,
                                         anchored=True))
    poses = rng.normal(size=(5, 3))
    desc = rng.normal(size=(5, 4))
    out = decode(params, poses, desc)
    assert out.shape == (10, 3)
    np.testing.assert_allclose(out, np.repeat(poses, 2, axis=0), atol=1e-12)


def test_conditioned_zero_weights_emits_zeros():
    rng = np.random.default_rng(1)
    params = zeroed(decoder.init_decoder(4, 3, 7, m=3, h=8, rng=rng,
                                         anchored=False))
    out = decode(params, rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))
    assert out.shape == (6, 7)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_anchored_translation_passthrough():
    rng = np.random.default_rng(2)
    params = decoder.init_decoder(4, 3, 3, m=2, h=8, rng=rng, anchored=True)
    poses = rng.normal(size=(3, 3))
    desc = rng.normal(size=(3, 4))
    v = np.array([0.7, -1.3, 2.2])
    base = decode(params, poses, desc)
    shifted = decode(params, poses + v, desc)
    np.testing.assert_allclose(shifted, base + v, atol=1e-12)


def test_anchored_requires_matching_dims():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        decoder.init_decoder(4, 5, 3, m=2, h=8, rng=rng, anchored=True)
    params = decoder.init_decoder(4, 3, 3, m=2, h=8, rng=rng, anchored=True)
    with pytest.raises(ValueError):
        decode(params, np.zeros((2, 5)), np.zeros((2, 4)))


def test_decode_batch_matches_single():
    rng = np.random.default_rng(4)
    params = decoder.init_decoder(5, 3, 8, m=2, h=16, rng=rng, anchored=False)
    poses = rng.normal(size=(4, 3, 3))
    desc = rng.normal(size=(4, 3, 5))
    batched = decoder.decode(params, ad.as_tensor(poses),
                             ad.as_tensor(desc)).data
    for i in range(4):
        np.testing.assert_allclose(batched[i], decode(params, poses[i], desc[i]),
                                   atol=1e-12)


def test_loss_equ_consistency_is_zero():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, 6))
        rot = geometry.sample_rotations(d, 1, rng)[0]
        poses = rng.normal(size=(k, d))
        worst = max(worst, loss_equ(rot, poses, poses @ rot.T))
    assert worst < 1e-12


def test_loss_equ_scalar_fixture():
    # K=1, D=1, T=[1], pose 2 vs 5: (2 - 5)^2 = 9
    got = loss_equ(np.array([[1.0]]), np.array([[2.0]]), np.array([[5.0]]))
    np.testing.assert_allclose(got, 9.0, rtol=1e-12)


def test_loss_equ_identity_fixture():
    # rows differ by (1,0) and (0,2): (1 + 4) / 2 = 2.5
    poses = np.array([[3.0, 1.0], [0.5, -2.0]])
    rotated = poses + np.array([[1.0, 0.0], [0.0, 2.0]])
    got = loss_equ(np.eye(2), poses, rotated)
    np.testing.assert_allclose(got, 2.5, rtol=1e-12)


def test_loss_inv_fixtures():
    desc = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert loss_inv(desc, desc) == 0.0
    moved = desc + np.array([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(loss_inv(desc, moved), 2.5, rtol=1e-12)
    np.testing.assert_allclose(loss_inv(desc, desc + 3 * (moved - desc)),
                               9 * 2.5, rtol=1e-12)


def test_loss_kl_identical_zero():
    rng = np.random.default_rng(6)
    attn = rng.dirichlet(np.ones(4), size=9)
    assert loss_kl(attn, attn) < 1e-12


def test_loss_kl_half_fixture():
    a = np.array([[0.5, 0.5]])
    b = np.array([[0.25, 0.75]])
    want = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)  # 0.5 * ln(4/3)
    np.testing.assert_allclose(loss_kl(a, b), want, rtol=1e-10)
    np.testing.assert_allclose(want, 0.143841, atol=5e-7)


def test_loss_kl_nonnegative_100_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = int(rng.integers(1, 12))
        k = int(rng.integers(2, 7))
        a = rng.dirichlet(np.ones(k), size=x)
        b = rng.dirichlet(np.ones(k), size=x)
        val = loss_kl(a, b)
        assert val >= 0.0
        # brute-force direct evaluation on the clamped rows
        ac = np.maximum(a, 1e-8); ac /= ac.sum(1, keepdims=True)
        bc = np.maximum(b, 1e-8); bc /= bc.sum(1, keepdims=True)
        want = (ac * (np.log(ac) - np.log(bc))).sum(1).mean()
        np.testing.assert_allclose(val, want, rtol=1e-10)


def test_reconstruction_loss_matches_chamfer():
    rng = np.random.default_rng(8)
    p = rng.normal(size=(7, 3))
    q = rng.normal(size=(5, 3))
    got = losses.reconstruction_loss(p[None], ad.Tensor(q[None]))
    assert float(got.data) == kernels.chamfer_forward(p[None], q[None])[0][0]


def test_total_loss_weighted_combination():
    # forward_batch is the one place that combines the loss terms
    state, hsi, lidar = tiny_batch(6)
    cfg = state.config
    w = losses.LossWeights(cfg.alpha, cfg.beta, cfg.gamma)
    assert (w.alpha, w.beta, w.gamma) == (0.5, 0.5, 0.1)
    total, rep = forward_batch(state, hsi, lidar, np.random.default_rng(1), w)
    assert float(total.data) == rep.total
    assert rep.total == weighted_terms(rep, w)
    _, rep = forward_batch(state, hsi, lidar, np.random.default_rng(1),
                           losses.LossWeights(0.0, 0.0, 0.0))
    assert rep.total == 0.0
    custom = losses.LossWeights(alpha=0.25, beta=0.5, gamma=0.1)
    _, rep = forward_batch(state, hsi, lidar, np.random.default_rng(1), custom)
    assert rep.total == weighted_terms(rep, custom)


def test_total_loss_exact_weighted_identity_random():
    state, hsi, lidar = tiny_batch(8)
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = losses.LossWeights(*rng.uniform(0, 1, size=3))
        _, rep = forward_batch(state, hsi, lidar, np.random.default_rng(1), w)
        assert rep.total == weighted_terms(rep, w)


def test_loss_gradients_fd():
    rng = np.random.default_rng(10)
    rot = geometry.sample_rotations(3, 2, rng)
    poses = rng.normal(size=(2, 4, 3))
    rposes = rng.normal(size=(2, 4, 3))
    attn_a = rng.dirichlet(np.ones(3), size=(2, 6))
    attn_b = rng.dirichlet(np.ones(3), size=(2, 6))

    arrs = [poses, rposes, attn_a, attn_b]

    def run():
        tensors = [ad.Tensor(x) for x in arrs]
        p, rp, aa, ab = tensors
        out = losses.loss_equivariance(rot, p, rp) + losses.loss_kl(aa, ab)
        return out, tensors

    out, tensors = run()
    ad.backward(out)
    grads = [t.grad.copy().reshape(-1) for t in tensors]
    h = 1e-6
    for t_idx, arr in enumerate(arrs):
        flat = arr.reshape(-1)
        idxs = np.random.default_rng(t_idx).choice(flat.size, 5, replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + h
            fp = float(run()[0].data)
            flat[idx] = orig - h
            fm = float(run()[0].data)
            flat[idx] = orig
            num = (fp - fm) / (2 * h)
            ana = grads[t_idx][idx]
            rel = abs(ana - num) / max(1e-8, abs(ana) + abs(num))
            assert rel < 1e-4
