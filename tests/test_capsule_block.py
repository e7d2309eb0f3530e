"""Pixel-lift capsule block: squash fixtures, locality, equivariance.

The lift maps (..., c_spec) pixel spectra to (..., g*d_cap) points."""

import numpy as np

from hdcaps import autodiff as ad
from hdcaps import capsule_block as cb


def make_params(c_spec, g, d_cap, seed=0):
    return cb.init_capsule_block(c_spec, g, d_cap, np.random.default_rng(seed))


def squash(v):
    return ad.squash_groups(ad.Tensor(v)).data


def lift(params, pixels, g, d_cap):
    """Points of pixels (..., c_spec) through the lift, as an array."""
    return cb.extract_preliminary_batch(params, pixels, g, d_cap).data


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
    pixels = np.random.default_rng(1).normal(size=(9, 5))
    out = lift(params, pixels, 2, 3)
    np.testing.assert_allclose(out, 0.0)


def test_extract_identity_weights_fixture():
    # one pixel, identity map: the point is just squash(spectrum)
    params = {"w": ad.Tensor(np.eye(2)), "b": ad.Tensor(np.zeros(2))}
    out = lift(params, np.array([[3.0, 4.0]]), 1, 2)
    assert out.shape == (1, 2)
    np.testing.assert_allclose(out[0], [15.0 / 26.0, 20.0 / 26.0], atol=1e-6)


def test_extract_shapes_and_order():
    params = make_params(6, 4, 4)
    patch = np.random.default_rng(2).normal(size=(5, 5, 6))
    out = lift(params, patch, 4, 4)
    assert out.shape == (5, 5, 16)
    # leading axes are kept: point (1, 3) comes from pixel (1, 3)
    single = lift(params, patch[1, 3], 4, 4)
    assert single.shape == (16,)
    np.testing.assert_allclose(out[1, 3], single, atol=1e-12)


def test_extract_pixel_permutation_equivariance():
    params = make_params(3, 2, 2)
    pixels = np.random.default_rng(3).normal(size=(4, 3))
    out = lift(params, pixels, 2, 2)
    perm = np.array([2, 0, 3, 1])
    np.testing.assert_allclose(lift(params, pixels[perm], 2, 2), out[perm], atol=1e-12)


def test_extract_per_pixel_locality():
    params = make_params(4, 2, 3)
    pixels = np.random.default_rng(4).normal(size=(9, 4))
    base = lift(params, pixels, 2, 3)
    bumped = pixels.copy()
    bumped[5] += 0.5
    out = lift(params, bumped, 2, 3)
    changed = np.any(np.abs(out - base) > 0, axis=1)
    expect = np.zeros(9, dtype=bool)
    expect[5] = True
    np.testing.assert_array_equal(changed, expect)


def test_extract_norm_below_sqrt_g():
    g = 4
    params = make_params(8, g, 4)
    pixels = np.random.default_rng(5).normal(size=(25, 8)) * 100
    out = lift(params, pixels, g, 4)
    assert np.all(np.linalg.norm(out, axis=1) < np.sqrt(g))


def test_extract_batch_matches_single():
    params = make_params(5, 4, 4)
    pixels = np.random.default_rng(6).normal(size=(3, 9, 5))
    batch = lift(params, pixels, 4, 4)
    for i in range(3):
        np.testing.assert_allclose(batch[i], lift(params, pixels[i], 4, 4), atol=1e-12)


def test_extract_param_gradients_fd():
    params = make_params(3, 2, 2, seed=7)
    rng = np.random.default_rng(8)
    pixels = rng.normal(size=(4, 3))
    coef = rng.normal(size=(4, 4))

    def loss_tensor():
        out = cb.extract_preliminary_batch(params, pixels, 2, 2)
        return ad.tsum(ad.mul(out, coef))

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
