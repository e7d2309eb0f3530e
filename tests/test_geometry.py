"""Rotation-sampler statistics and chamfer-distance oracles."""

import numpy as np
import pytest

from hdcaps import autodiff as ad
from hdcaps import geometry, kernels, losses


def brute_chamfer(p, q):
    """O(n*m) double-loop oracle for the symmetric chamfer distance."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    fwd = 0.0
    for i in range(p.shape[0]):
        fwd += min(float(np.sum((p[i] - q[j]) ** 2)) for j in range(q.shape[0]))
    bwd = 0.0
    for j in range(q.shape[0]):
        bwd += min(float(np.sum((q[j] - p[i]) ** 2)) for i in range(p.shape[0]))
    return fwd / p.shape[0] + bwd / q.shape[0]


def chamfer(p, q):
    """The kernel's chamfer value of one pair of point sets."""
    return kernels.chamfer_forward(p[None], q[None])[0][0]


@pytest.mark.parametrize("dim", [2, 3, 16, 50])
def test_rotation_orthogonal_unit_det(dim):
    rng = np.random.default_rng(0)
    for r in geometry.sample_rotations(dim, 20, rng):
        np.testing.assert_allclose(r.T @ r, np.eye(dim), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


def test_rotation_batch_matches_contract():
    rng = np.random.default_rng(1)
    rots = geometry.sample_rotations(7, 64, rng)
    assert rots.shape == (64, 7, 7)
    eye = np.eye(7)
    for r in rots:
        np.testing.assert_allclose(r.T @ r, eye, atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


def test_rotation_so2_form():
    # in 2-D every proper rotation is [[c, -s], [s, c]]
    rng = np.random.default_rng(2)
    for r in geometry.sample_rotations(2, 50, rng):
        assert abs(r[0, 0] - r[1, 1]) < 1e-12
        assert abs(r[0, 1] + r[1, 0]) < 1e-12


def test_rotation_mean_entry_near_zero():
    # Haar uniformity: every matrix entry has mean 0
    rng = np.random.default_rng(3)
    rots = geometry.sample_rotations(3, 4000, rng)
    assert abs(rots[:, 0, 0].mean()) < 0.03


def test_rotation_composition_closed():
    rng = np.random.default_rng(4)
    a, b = geometry.sample_rotations(5, 2, rng)
    c = a @ b
    np.testing.assert_allclose(c.T @ c, np.eye(5), atol=1e-10)
    assert abs(np.linalg.det(c) - 1.0) < 1e-10


def test_rotation_deterministic_and_stream_consistent():
    for count in (1, 3):
        x = geometry.sample_rotations(4, count, np.random.default_rng(9))
        y = geometry.sample_rotations(4, count, np.random.default_rng(9))
        np.testing.assert_array_equal(x, y)
    # a batch consumes the stream like one (count, dim, dim) Gaussian draw,
    # so the first rotation of a batch does not depend on the batch size
    one = geometry.sample_rotations(4, 1, np.random.default_rng(9))
    three = geometry.sample_rotations(4, 3, np.random.default_rng(9))
    np.testing.assert_allclose(three[0], one[0], atol=1e-12)


def test_apply_rotation_semantics():
    # the model rotates a point set as pts @ rot.T (row p becomes R @ p);
    # the equivariance loss must read rotations the same way
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 degrees
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])
    out = pts @ rot.T
    np.testing.assert_allclose(out, [[0.0, 1.0], [-2.0, 0.0]], atol=1e-15)
    loss = losses.loss_equivariance(rot[None], ad.Tensor(pts[None]), ad.Tensor(out[None]))
    assert float(loss.data) == 0.0


def test_chamfer_identical_sets_zero():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(12, 4))
    assert chamfer(p, p) == 0.0


def test_chamfer_known_value():
    p = np.array([[0.0], [1.0]])
    q = np.array([[0.25]])
    # p->q: (0.0625 + 0.5625)/2 ; q->p: 0.0625
    assert abs(chamfer(p, q) - (0.3125 + 0.0625)) < 1e-15


def test_chamfer_matches_bruteforce():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n, m = rng.integers(1, 21, size=2)
        d = int(rng.integers(1, 11))
        p = rng.normal(size=(n, d))
        q = rng.normal(size=(m, d))
        assert abs(chamfer(p, q) - brute_chamfer(p, q)) < 1e-12


def test_chamfer_symmetry_and_rotation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, m = rng.integers(2, 15, size=2)
        d = int(rng.integers(2, 6))
        p = rng.normal(size=(n, d))
        q = rng.normal(size=(m, d))
        assert abs(chamfer(p, q) - chamfer(q, p)) < 1e-12
        rot = geometry.sample_rotations(d, 1, rng)[0]
        assert abs(chamfer(p @ rot.T, q @ rot.T) - chamfer(p, q)) < 1e-10


def test_chamfer_batch_matches_scalar():
    rng = np.random.default_rng(8)
    p = rng.normal(size=(5, 9, 3))
    q = rng.normal(size=(5, 4, 3))
    batched = losses.reconstruction_loss(p, ad.Tensor(q))
    singles = np.mean([brute_chamfer(p[b], q[b]) for b in range(5)])
    assert abs(float(batched.data) - singles) < 1e-12


def test_chamfer_batch_gradient_fd():
    rng = np.random.default_rng(9)
    p = rng.normal(size=(2, 6, 3))
    q = rng.normal(size=(2, 5, 3))
    tq = ad.Tensor(q.copy())
    ad.backward(losses.reconstruction_loss(p, tq))

    def value():
        return float(losses.reconstruction_loss(p, ad.Tensor(q)).data)

    h = 1e-6
    flat = q.reshape(-1)
    for idx in rng.choice(flat.size, size=8, replace=False):
        orig = flat[idx]
        flat[idx] = orig + h
        fp = value()
        flat[idx] = orig - h
        fm = value()
        flat[idx] = orig
        num = (fp - fm) / (2.0 * h)
        ana = tq.grad.reshape(-1)[idx]
        assert abs(ana - num) < 1e-5
