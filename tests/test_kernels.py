"""Chamfer kernels against a brute-force broadcast oracle and against
the dense shortlist forward that the segment reductions replaced."""

import numpy as np
import pytest

from hdcaps import kernels


def oracle_forward(p, q):
    """Full (B, n, m, D) difference tensor; ties go to the lowest index."""
    d2 = np.sum((p[:, :, None, :] - q[:, None, :, :]) ** 2, axis=-1)
    nn_pq = np.argmin(d2, axis=2)
    nn_qp = np.argmin(d2, axis=1)
    vals = d2.min(axis=2).mean(axis=1) + d2.min(axis=1).mean(axis=1)
    return vals, nn_pq, nn_qp


def dense_shortlist_forward(p, q):
    """The same shortlist, scattered into a dense (B, n, m) array of inf
    and reduced with argmin / min along each axis."""
    pp = np.einsum("bnd,bnd->bn", p, p)
    qq = np.einsum("bmd,bmd->bm", q, q)
    d2 = pp[:, :, None] + qq[:, None, :] - 2.0 * (p @ q.transpose(0, 2, 1))
    eps = np.finfo(d2.dtype).eps
    bound = (8.0 * (p.shape[2] + 2) * eps) * (pp.max(axis=1) + qq.max(axis=1))
    bound = bound[:, None, None]
    near = d2 <= d2.min(axis=2, keepdims=True) + bound
    near |= d2 <= d2.min(axis=1, keepdims=True) + bound
    b, i, j = np.nonzero(near)
    diff = p[b, i]
    diff -= q[b, j]
    exact = np.full(d2.shape, np.inf, dtype=d2.dtype)
    exact[b, i, j] = np.sum(np.square(diff, out=diff), axis=-1)
    nn_pq = exact.argmin(axis=2)
    nn_qp = exact.argmin(axis=1)
    vals = exact.min(axis=2).mean(axis=1) + exact.min(axis=1).mean(axis=1)
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


def random_pair(rng, bsz=None, dtype=np.float64):
    bsz = int(rng.integers(1, 6)) if bsz is None else bsz
    n, m = rng.integers(1, 31, size=2)
    d = int(rng.integers(1, 145))
    return (rng.normal(size=(bsz, n, d)).astype(dtype),
            rng.normal(size=(bsz, m, d)).astype(dtype))


# backward tolerance (rtol, atol) against the per-point scatter: the
# one-hot matmul sums a point's terms in another order
BACKWARD_TOL = {np.float64: (1e-12, 1e-13), np.float32: (1e-5, 1e-6)}


def check_forward_matches_oracle(dtype):
    # the minima are recomputed with the oracle's own formula, so indices
    # and values agree exactly, not just up to roundoff
    rng = np.random.default_rng(0)
    for _ in range(100):
        p, q = random_pair(rng, dtype=dtype)
        vals, nn_pq, nn_qp = kernels.chamfer_forward(p, q)
        ref_vals, ref_pq, ref_qp = oracle_forward(p, q)
        assert vals.dtype == dtype
        np.testing.assert_array_equal(nn_pq, ref_pq)
        np.testing.assert_array_equal(nn_qp, ref_qp)
        np.testing.assert_array_equal(vals, ref_vals)


def test_forward_matches_oracle():
    check_forward_matches_oracle(np.float64)


def test_forward_matches_oracle_float32():
    check_forward_matches_oracle(np.float32)


def check_backward_matches_oracle(dtype):
    rng = np.random.default_rng(1)
    rtol, atol = BACKWARD_TOL[dtype]
    for _ in range(100):
        p, q = random_pair(rng, dtype=dtype)
        gout = rng.normal(size=p.shape[0]).astype(dtype)
        _, nn_pq, nn_qp = oracle_forward(p, q)
        gq = kernels.chamfer_backward(p, q, nn_pq, nn_qp, gout)
        ref_gq = oracle_backward(p, q, nn_pq, nn_qp, gout)
        assert gq.dtype == dtype
        np.testing.assert_allclose(gq, ref_gq, rtol=rtol, atol=atol)


def test_backward_matches_oracle():
    check_backward_matches_oracle(np.float64)


def test_backward_matches_oracle_float32():
    check_backward_matches_oracle(np.float32)


def check_tie_break_lowest_index(dtype):
    # two equally-near neighbors: index 0 wins
    p = np.array([[[0.0, 0.0]]], dtype=dtype)
    q = np.array([[[1.0, 0.0], [-1.0, 0.0]]], dtype=dtype)
    _, nn_pq, _ = kernels.chamfer_forward(p, q)
    assert nn_pq[0, 0] == 0
    # a duplicated point is nearest to every point of the other set; the
    # matmul may round its two copies differently, the exact sums may not
    rng = np.random.default_rng(4)
    for _ in range(200):
        p, q = random_pair(rng, dtype=dtype)
        bsz, m, d = q.shape
        if m < 2:
            continue
        lo, hi = np.sort(rng.choice(m, size=2, replace=False))
        q[:, hi] = q[:, lo]
        p = q[:, lo][:, None, :] + (1e-3 * rng.normal(size=p.shape)).astype(dtype)
        _, nn_pq, _ = kernels.chamfer_forward(p, q)
        assert (nn_pq == lo).all()
        _, _, nn_qp = kernels.chamfer_forward(q, p)
        assert (nn_qp == lo).all()


def test_tie_break_lowest_index():
    check_tie_break_lowest_index(np.float64)


def test_tie_break_lowest_index_float32():
    check_tie_break_lowest_index(np.float32)


def test_float32_near_tie_finds_exact_neighbour():
    # two points of q differ by a few float32 ulps in one coordinate, far
    # less than the float32 roundoff of the matmul distances; the kernel
    # must still pick the neighbour that the exact distances pick
    rng = np.random.default_rng(5)
    expansion_misses = 0
    for _ in range(300):
        p, q = random_pair(rng, dtype=np.float32)
        bsz, m, d = q.shape
        if m < 2:
            continue
        lo, hi = rng.choice(m, size=2, replace=False)
        k = int(rng.integers(d))
        q[:, hi] = q[:, lo]
        q[:, hi, k] += np.spacing(q[:, lo, k]) * rng.integers(-3, 4, size=bsz)
        p = q[:, lo][:, None, :] + (1e-2 * rng.normal(size=p.shape)).astype(np.float32)
        vals, nn_pq, nn_qp = kernels.chamfer_forward(p, q)
        ref_vals, ref_pq, ref_qp = oracle_forward(p, q)
        np.testing.assert_array_equal(nn_pq, ref_pq)
        np.testing.assert_array_equal(nn_qp, ref_qp)
        np.testing.assert_array_equal(vals, ref_vals)
        pp = np.einsum("bnd,bnd->bn", p, p)
        qq = np.einsum("bmd,bmd->bm", q, q)
        expanded = pp[:, :, None] + qq[:, None, :] - 2.0 * (p @ q.transpose(0, 2, 1))
        expansion_misses += int((expanded.argmin(axis=2) != ref_pq).any())
    # the matmul distances alone would have picked wrongly in some cases
    assert expansion_misses > 0


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


def check_backward_is_gradient_of_forward(dtype):
    # directional finite difference in q through the public kernels, in
    # float64 on the same points; the analytic gradient comes in dtype
    rng = np.random.default_rng(3)
    p, q = random_pair(rng, bsz=2, dtype=dtype)
    vals, nn_pq, nn_qp = kernels.chamfer_forward(p, q)
    gout = np.ones(2, dtype=dtype)
    gq = kernels.chamfer_backward(p, q, nn_pq, nn_qp, gout)
    assert gq.dtype == dtype
    p, q = p.astype(np.float64), q.astype(np.float64)
    h = 1e-7
    dq = rng.normal(size=q.shape)
    vp, _, _ = kernels.chamfer_forward(p, q + h * dq)
    vm, _, _ = kernels.chamfer_forward(p, q - h * dq)
    numeric = (vp - vm).sum() / (2.0 * h)
    analytic = float((gq * dq).sum())
    assert abs(numeric - analytic) < 1e-4


def test_backward_is_gradient_of_forward():
    check_backward_is_gradient_of_forward(np.float64)


def test_backward_is_gradient_of_forward_float32():
    check_backward_is_gradient_of_forward(np.float32)


def assert_same_forward(p, q):
    vals, nn_pq, nn_qp = kernels.chamfer_forward(p, q)
    ref_vals, ref_pq, ref_qp = dense_shortlist_forward(p, q)
    assert vals.dtype == ref_vals.dtype and nn_pq.shape == ref_pq.shape
    np.testing.assert_array_equal(vals, ref_vals, strict=True)
    np.testing.assert_array_equal(nn_pq, ref_pq)
    np.testing.assert_array_equal(nn_qp, ref_qp)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_matches_dense_shortlist(dtype):
    rng = np.random.default_rng(6)
    for _ in range(100):
        assert_same_forward(*random_pair(rng, dtype=dtype))
    # duplicated points, exact ties on a grid, and the degenerate sizes
    for _ in range(100):
        p, q = random_pair(rng, dtype=dtype)
        q[:, -1] = q[:, 0]
        p[:, 0] = q[:, 0]
        assert_same_forward(p, q)
        assert_same_forward(q, p)
        grid = rng.integers(-2, 3, size=p.shape).astype(dtype)
        assert_same_forward(grid, rng.integers(-2, 3, size=q.shape).astype(dtype))
    for bsz, n, m in ((1, 7, 4), (3, 1, 5), (3, 6, 1), (1, 1, 1), (2, 9, 9)):
        d = int(rng.integers(1, 20))
        p = rng.normal(size=(bsz, n, d)).astype(dtype)
        q = rng.normal(size=(bsz, m, d)).astype(dtype)
        assert_same_forward(p, q)


@pytest.mark.parametrize("side", ["p", "q"])
def test_forward_nan_batch_is_not_finite(side):
    rng = np.random.default_rng(7)
    p, q = random_pair(rng, bsz=4, dtype=np.float32)
    (p if side == "p" else q)[2, 0, 0] = np.nan
    vals, nn_pq, nn_qp = kernels.chamfer_forward(p, q)
    assert not np.isfinite(vals[2])
    # the other batches keep their values, and every index stays in range
    keep = [0, 1, 3]
    np.testing.assert_array_equal(vals[keep], oracle_forward(p[keep], q[keep])[0])
    assert 0 <= nn_pq.min() and nn_pq.max() < q.shape[1]
    assert 0 <= nn_qp.min() and nn_qp.max() < p.shape[1]
