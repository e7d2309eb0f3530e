"""Chamfer kernels against a brute-force broadcast oracle."""

import numpy as np

from hdcaps import kernels


def oracle_forward(p, q):
    """Full (B, n, m, D) difference tensor; ties go to the lowest index."""
    d2 = np.sum((p[:, :, None, :] - q[:, None, :, :]) ** 2, axis=-1)
    nn_pq = np.argmin(d2, axis=2)
    nn_qp = np.argmin(d2, axis=1)
    vals = d2.min(axis=2).mean(axis=1) + d2.min(axis=1).mean(axis=1)
    return vals, nn_pq, nn_qp


def oracle_backward(p, q, nn_pq, nn_qp, gout):
    """Per-point scatter of the chamfer gradient for q with np.subtract.at."""
    bsz, n, _ = p.shape
    m = q.shape[1]
    rows = np.arange(bsz)[:, None]
    diff_pq = (p - q[rows, nn_pq]) * (gout * (2.0 / n))[:, None, None]
    gq = (q - p[rows, nn_qp]) * (gout * (2.0 / m))[:, None, None]
    np.subtract.at(gq, (rows, nn_pq), diff_pq)
    return gq


def random_pair(rng, bsz=None):
    bsz = int(rng.integers(1, 6)) if bsz is None else bsz
    n, m = rng.integers(1, 31, size=2)
    d = int(rng.integers(1, 145))
    return rng.normal(size=(bsz, n, d)), rng.normal(size=(bsz, m, d))


def test_forward_matches_oracle():
    # the minima are recomputed with the oracle's own formula, so indices
    # and values agree exactly, not just up to roundoff
    rng = np.random.default_rng(0)
    for _ in range(100):
        p, q = random_pair(rng)
        vals, nn_pq, nn_qp = kernels.chamfer_forward(p, q)
        ref_vals, ref_pq, ref_qp = oracle_forward(p, q)
        np.testing.assert_array_equal(nn_pq, ref_pq)
        np.testing.assert_array_equal(nn_qp, ref_qp)
        np.testing.assert_array_equal(vals, ref_vals)


def test_backward_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p, q = random_pair(rng)
        gout = rng.normal(size=p.shape[0])
        _, nn_pq, nn_qp = oracle_forward(p, q)
        gq = kernels.chamfer_backward(p, q, nn_pq, nn_qp, gout)
        ref_gq = oracle_backward(p, q, nn_pq, nn_qp, gout)
        np.testing.assert_allclose(gq, ref_gq, rtol=1e-12, atol=1e-13)


def test_tie_break_lowest_index():
    # two equally-near neighbors: index 0 wins
    p = np.array([[[0.0, 0.0]]])
    q = np.array([[[1.0, 0.0], [-1.0, 0.0]]])
    _, nn_pq, _ = kernels.chamfer_forward(p, q)
    assert nn_pq[0, 0] == 0
    # a duplicated point is nearest to every point of the other set; the
    # matmul may round its two copies differently, the exact sums may not
    rng = np.random.default_rng(4)
    for _ in range(200):
        p, q = random_pair(rng)
        bsz, m, d = q.shape
        if m < 2:
            continue
        lo, hi = np.sort(rng.choice(m, size=2, replace=False))
        q[:, hi] = q[:, lo]
        p = q[:, lo][:, None, :] + 1e-3 * rng.normal(size=p.shape)
        _, nn_pq, _ = kernels.chamfer_forward(p, q)
        assert (nn_pq == lo).all()
        _, _, nn_qp = kernels.chamfer_forward(q, p)
        assert (nn_qp == lo).all()


def test_dispatch_accepts_noncontiguous():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(3, 10, 8))
    p = base[:, ::2, ::2]  # stride tricks make this non-contiguous
    q = rng.normal(size=(3, 4, 4))
    vals, nn_pq, nn_qp = kernels.chamfer_forward(p, q)
    ref, ref_pq, ref_qp = oracle_forward(np.ascontiguousarray(p), q)
    np.testing.assert_array_equal(vals, ref)
    np.testing.assert_array_equal(nn_pq, ref_pq)
    np.testing.assert_array_equal(nn_qp, ref_qp)
    gq = kernels.chamfer_backward(p, q, nn_pq, nn_qp, np.ones(3))
    ref_gq = oracle_backward(np.ascontiguousarray(p), q, nn_pq, nn_qp, np.ones(3))
    np.testing.assert_allclose(gq, ref_gq, rtol=1e-12, atol=1e-13)


def test_backward_is_gradient_of_forward():
    # directional finite difference in q through the public kernels
    rng = np.random.default_rng(3)
    p, q = random_pair(rng, bsz=2)
    vals, nn_pq, nn_qp = kernels.chamfer_forward(p, q)
    gout = np.ones(2)
    gq = kernels.chamfer_backward(p, q, nn_pq, nn_qp, gout)
    h = 1e-7
    dq = rng.normal(size=q.shape)
    vp, _, _ = kernels.chamfer_forward(p, q + h * dq)
    vm, _, _ = kernels.chamfer_forward(p, q - h * dq)
    numeric = (vp - vm).sum() / (2.0 * h)
    analytic = float((gq * dq).sum())
    assert abs(numeric - analytic) < 1e-4
