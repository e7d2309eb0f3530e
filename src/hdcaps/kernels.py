"""Hot numeric kernels: nearest-neighbor chamfer forward/backward.

One numpy algorithm. The forward builds all (B, n, m) squared distances
as |p|^2 + |q|^2 - 2 p.q^T with one batched matmul. That expansion is
fast but rounds differently from a direct sum, and BLAS may round two
equal columns differently, so it only shortlists neighbours: every pair
whose matmul distance lies within a worst-case roundoff bound of its
row's or its column's minimum is recomputed exactly as
``sum((p - q) ** 2)``. Each point's neighbour is the shortlisted one with
the least exact distance, and ties in that computed distance go to the
lowest index. The minima that make up the chamfer value are these exact
distances, so they are never negative, the value of a set against itself
is exactly 0, and values and indices equal those of the full
(B, n, m, D) difference tensor without building it. The backward
returns the gradient for q alone, because p is always a fixed target:
it gathers each point's neighbour by fancy indexing and scatters the
term of each point of p onto its neighbour in q with a batched one-hot
matmul. Both kernels compute in the dtype of their inputs, float32 in
training, and the roundoff bound uses that dtype's eps.
"""

from __future__ import annotations

import numpy as np

# There is no numba backend; perfbench/run.py still records this flag.
NUMBA_ENABLED = False


def chamfer_forward(p: np.ndarray, q: np.ndarray):
    """Batched symmetric chamfer. p: (B,n,D), q: (B,m,D).

    p and q share one float dtype, which the values keep. Returns
    (values (B,), nn_pq (B,n), nn_qp (B,m)); the index arrays are each
    point's nearest neighbor in the other set and feed the backward pass.
    """
    p = np.ascontiguousarray(p)
    q = np.ascontiguousarray(q)
    pp = np.einsum("bnd,bnd->bn", p, p)
    qq = np.einsum("bmd,bmd->bm", q, q)
    d2 = pp[:, :, None] + qq[:, None, :] - 2.0 * (p @ q.transpose(0, 2, 1))
    # each expanded distance and each exact sum is off by at most about
    # (D + 2) eps (max|p|^2 + max|q|^2), eps that of the working dtype, so
    # the exact nearest neighbour lies within four such errors of the
    # expanded minimum; 8 leaves a factor 2
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


def chamfer_backward(p, q, nn_pq, nn_qp, gout):
    """Gradient (B, m, D), in q's dtype, of chamfer_forward values w.r.t.
    q; the target p gets none."""
    bsz, n, _ = p.shape
    m = q.shape[1]
    rows = np.arange(bsz)[:, None]
    diff_pq = q[rows, nn_pq]
    np.subtract(p, diff_pq, out=diff_pq)
    diff_pq *= (gout * (2.0 / n))[:, None, None]
    diff_qp = p[rows, nn_qp]
    np.subtract(q, diff_qp, out=diff_qp)
    diff_qp *= (gout * (2.0 / m))[:, None, None]
    # to_q[b, j, i] = 1 where q[b, j] is the neighbour of p[b, i]
    to_q = (np.arange(m)[:, None] == nn_pq[:, None, :]).astype(q.dtype)
    gq = to_q @ diff_pq
    np.subtract(diff_qp, gq, out=gq)
    return gq
