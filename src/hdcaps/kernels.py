"""Hot numeric kernels: nearest-neighbor chamfer forward/backward.

One numpy algorithm. The forward builds all (B, n, m) squared distances
as |p|^2 + |q|^2 - 2 p.q^T with one batched matmul. That expansion is
fast but rounds differently from a direct sum, and BLAS may round two
equal columns differently, so it only shortlists neighbours: every pair
whose matmul distance lies within a worst-case roundoff bound of its
row's or its column's minimum is recomputed exactly as
``sum((p - q) ** 2)``, on pairs gathered by flat row index. Neighbours
are picked from the shortlist alone. In C order it is grouped by point
of p with the index into q rising, and one stable sort groups it by
point of q the same way. A segment's minimum (``np.minimum.reduceat``)
is that point's least exact distance, and the first pair of the segment
that attains it is its neighbour, so ties in that computed distance go
to the lowest index. The minima that make up the chamfer value are these
exact distances, so they are never negative, the value of a set against
itself is exactly 0, and values and indices equal those of the full
(B, n, m, D) difference tensor without building it. A point left with
no shortlisted pair, which only non-finite input can cause, counts as
infinitely far. The backward returns the gradient for q alone, because
p is always a fixed target: it gathers each point's neighbour by flat
row index and scatters the term of each point of p onto its neighbour
in q with a batched one-hot matmul. Both kernels compute in the dtype of
their inputs, float32 in training, and the roundoff bound uses that
dtype's eps.
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
    bsz, n, d = p.shape
    m = q.shape[1]
    pp = np.einsum("bnd,bnd->bn", p, p)
    qq = np.einsum("bmd,bmd->bm", q, q)
    d2 = pp[:, :, None] + qq[:, None, :] - 2.0 * (p @ q.transpose(0, 2, 1))
    # each expanded distance and each exact sum is off by at most about
    # (D + 2) eps (max|p|^2 + max|q|^2), eps that of the working dtype, so
    # the exact nearest neighbour lies within four such errors of the
    # expanded minimum; 8 leaves a factor 2
    eps = np.finfo(d2.dtype).eps
    bound = (8.0 * (d + 2) * eps) * (pp.max(axis=1) + qq.max(axis=1))
    # numpy reduces a short last axis row by row; with the batch innermost
    # both minima reduce leading axes, vectorized over the batch
    d2_t = np.ascontiguousarray(d2.transpose(1, 2, 0))
    near = d2 <= (d2_t.min(axis=1) + bound).T[:, :, None]
    near |= d2 <= (d2_t.min(axis=0) + bound).T[:, None, :]
    p_row, j = np.divmod(np.flatnonzero(near), m)
    q_row = (p_row // n) * m + j
    diff = p.reshape(-1, d).take(p_row, axis=0)
    diff -= q.reshape(-1, d).take(q_row, axis=0)
    exact = np.sum(np.square(diff, out=diff), axis=-1)
    # the shortlist is C-ordered, so grouped by p-row with j rising; the
    # stable sort groups it by q-row with i rising
    by_q = np.argsort(q_row, kind="stable")
    min_p, nn_pq = _segment_nearest(exact, p_row, j, bsz * n)
    min_q, nn_qp = _segment_nearest(exact[by_q], q_row[by_q], p_row[by_q] % n, bsz * m)
    vals = min_p.reshape(bsz, n).mean(axis=1) + min_q.reshape(bsz, m).mean(axis=1)
    return vals, nn_pq.reshape(bsz, n), nn_qp.reshape(bsz, m)


def _segment_nearest(exact, row, col, rows):
    """Per row of ``rows``, the least ``exact`` among its pairs and the
    first ``col`` that attains it; ``row`` is sorted. A row with no pair
    (only on non-finite input) gets inf and index 0."""
    start = np.flatnonzero(np.diff(row, prepend=-1))
    least = np.full(rows, np.inf, dtype=exact.dtype)
    nearest = np.zeros(rows, dtype=np.intp)
    least[row[start]] = np.minimum.reduceat(exact, start)
    hit = np.flatnonzero(exact == least[row])
    first = hit[np.diff(row[hit], prepend=-1) != 0]
    nearest[row[first]] = col[first]
    return least, nearest


def chamfer_backward(p, q, nn_pq, nn_qp, gout):
    """Gradient (B, m, D), in q's dtype, of chamfer_forward values w.r.t.
    q; the target p gets none."""
    n, m = p.shape[1], q.shape[1]
    diff_pq = _gather(q, nn_pq)
    np.subtract(p, diff_pq, out=diff_pq)
    diff_pq *= (gout * (2.0 / n))[:, None, None]
    diff_qp = _gather(p, nn_qp)
    np.subtract(q, diff_qp, out=diff_qp)
    diff_qp *= (gout * (2.0 / m))[:, None, None]
    # to_q[b, j, i] = 1 where q[b, j] is the neighbour of p[b, i]
    to_q = (np.arange(m)[:, None] == nn_pq[:, None, :]).astype(q.dtype)
    gq = to_q @ diff_pq
    np.subtract(diff_qp, gq, out=gq)
    return gq


def _gather(x, nn):
    """x[b, nn[b, i]] for x (B, k, D) and nn (B, n), by flat row index."""
    bsz, k, d = x.shape
    flat = nn + np.arange(0, bsz * k, k)[:, None]
    return x.reshape(-1, d).take(flat.ravel(), axis=0).reshape(*nn.shape, d)
