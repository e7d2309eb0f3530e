"""Pixel-lift capsule block: squash fixtures, locality, equivariance.

Single patches go through the batched lift as a batch of one."""

import numpy as np
import pytest

from hdcaps import autodiff as ad
from hdcaps import capsule_block as cb


def make_params(c_spec, g, d_cap, seed=0):
    return cb.init_capsule_block(c_spec, g, d_cap, np.random.default_rng(seed))


def squash(v):
    return ad.squash_groups(ad.Tensor(v)).data


def lift(params, patch, g, d_cap):
    """Points of one (b, b, c_spec) patch through the batched lift."""
    return cb.extract_preliminary_batch(params, patch[None], g, d_cap).data[0]


def test_squash_zero_vector():
    np.testing.assert_allclose(squash(np.zeros(4)), 0.0)


def test_squash_3_4_fixture():
    out = squash(np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [15.0 / 26.0, 20.0 / 26.0], atol=1e-6)


def test_squash_large_norm_limit():
    out = squash(np.array([1e6, 0.0]))
    n = np.linalg.norm(out)
    assert 1.0 - 1e-6 < n < 1.0


def test_squash_preserves_direction():
    rng = np.random.default_rng(0)
    v = rng.normal(size=7)
    out = squash(v)
    cos = out @ v / (np.linalg.norm(out) * np.linalg.norm(v))
    assert cos > 1.0 - 1e-12


def test_extract_zero_params_zero_points():
    params = make_params(5, 2, 3)
    params["w"] = ad.Tensor(np.zeros_like(params["w"].data))
    patch = np.random.default_rng(1).normal(size=(3, 3, 5))
    out = lift(params, patch, 2, 3)
    np.testing.assert_allclose(out, 0.0)


def test_extract_identity_weights_fixture():
    # 1x1 patch, identity map: the point is just squash(spectrum)
    params = {"w": ad.Tensor(np.eye(2)), "b": ad.Tensor(np.zeros(2))}
    patch = np.array([[[3.0, 4.0]]])
    out = lift(params, patch, 1, 2)
    assert out.shape == (1, 2)
    np.testing.assert_allclose(out[0], [15.0 / 26.0, 20.0 / 26.0], atol=1e-6)


def test_extract_shapes_and_order():
    params = make_params(6, 4, 4)
    patch = np.random.default_rng(2).normal(size=(5, 5, 6))
    out = lift(params, patch, 4, 4)
    assert out.shape == (25, 16)
    # row-major order: point p comes from pixel (p // 5, p % 5)
    single = lift(params, patch[1:2, 3:4], 4, 4)
    np.testing.assert_allclose(out[1 * 5 + 3], single[0], atol=1e-12)


def test_extract_pixel_permutation_equivariance():
    params = make_params(3, 2, 2)
    rng = np.random.default_rng(3)
    patch = rng.normal(size=(2, 2, 3))
    out = lift(params, patch, 2, 2)
    flat = patch.reshape(4, 3)
    perm = np.array([2, 0, 3, 1])
    out_perm = lift(params, flat[perm].reshape(2, 2, 3), 2, 2)
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_extract_per_pixel_locality():
    params = make_params(4, 2, 3)
    rng = np.random.default_rng(4)
    patch = rng.normal(size=(3, 3, 4))
    base = lift(params, patch, 2, 3)
    bumped = patch.copy()
    bumped[1, 2] += 0.5
    out = lift(params, bumped, 2, 3)
    changed = np.any(np.abs(out - base) > 0, axis=1)
    expect = np.zeros(9, dtype=bool)
    expect[1 * 3 + 2] = True
    np.testing.assert_array_equal(changed, expect)


def test_extract_norm_below_sqrt_g():
    g = 4
    params = make_params(8, g, 4)
    patch = np.random.default_rng(5).normal(size=(5, 5, 8)) * 100
    out = lift(params, patch, g, 4)
    assert np.all(np.linalg.norm(out, axis=1) < np.sqrt(g))


def test_extract_batch_matches_single():
    params = make_params(5, 4, 4)
    rng = np.random.default_rng(6)
    patches = rng.normal(size=(3, 3, 3, 5))
    batch = cb.extract_preliminary_batch(params, patches, 4, 4)
    for i in range(3):
        single = lift(params, patches[i], 4, 4)
        np.testing.assert_allclose(batch.data[i], single, atol=1e-12)


def test_extract_rejects_band_mismatch():
    params = make_params(5, 2, 2)
    with pytest.raises(ValueError, match="4 bands"):
        lift(params, np.zeros((2, 2, 4)), 2, 2)


def test_extract_rejects_non_4d_patches():
    params = make_params(5, 2, 2)
    for shape in ((2, 2, 5), (1, 1, 2, 2, 5)):
        with pytest.raises(ValueError, match=r"\(B, b, b, c_spec\)"):
            cb.extract_preliminary_batch(params, np.zeros(shape), 2, 2)


def test_extract_param_gradients_fd():
    params = make_params(3, 2, 2, seed=7)
    rng = np.random.default_rng(8)
    patch = rng.normal(size=(2, 2, 3))
    coef = rng.normal(size=(4, 4))

    def loss_tensor():
        out = cb.extract_preliminary_batch(params, patch[None], 2, 2)
        return ad.tsum(ad.mul(out, coef[None]))

    out = loss_tensor()
    ad.backward(out)
    h = 1e-5
    for name in ("w", "b"):
        tensor = params[name]
        flat = tensor.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = float(loss_tensor().data)
            flat[idx] = orig - h
            fm = float(loss_tensor().data)
            flat[idx] = orig
            num = (fp - fm) / (2.0 * h)
            ana = tensor.grad.reshape(-1)[idx]
            rel = abs(ana - num) / max(1e-8, abs(ana) + abs(num))
            assert rel < 1e-4, f"{name}[{idx}]: {ana} vs {num}"
