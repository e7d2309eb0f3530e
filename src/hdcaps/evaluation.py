"""Downstream evaluation: feature fusion, a linear max-margin classifier,
unsupervised baselines and agreement scores: OA, AA, kappa and per-class
recall, all from one confusion matrix.

The classifier is a one-vs-rest linear model trained on the hinge loss
with L2 regularization: Pegasos-style per-sample subgradient steps with
the 1/(lambda*t) schedule, lambda fixed at 1e-4, and a per-class norm
projection. All classes advance as one (K, D+1) iterate and so share one
shuffled sample order, drawn from a seeded generator. A sample that
violates no class's margin only decays and averages the iterate, which
equals the full update exactly (see ``train_classifier``). Features are
z-scored with moments from the training split. Baselines are PCA and
Laplacian eigenmaps applied to the per-pixel original data, each one call from the (N, D) matrix to its
(N, k) embedding: both are fit transductively on the full feature
matrix, the split happens afterwards.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import _require_finite

__all__ = [
    "fuse_features",
    "raw_patch_features",
    "LinearClassifier",
    "train_classifier",
    "predict",
    "pca",
    "laplacian_eigenmaps",
    "confusion_matrix",
    "evaluate_split",
]

_STD_FLOOR = 1e-12
_LAMBDA = 1e-4  # the probe's L2 weight, part of the method, not a setting
# bytes of float64 distances, or of neighbour differences, per row block
# of the kNN search in laplacian_eigenmaps
_KNN_BLOCK_BYTES = 1 << 21


def fuse_features(feats_hsi: np.ndarray, feats_lidar: np.ndarray,
                  center: int) -> np.ndarray:
    """Concatenate center-pixel and mean rows of both branches' maps.

    feats_*: (N, X, C) maps of a batch; center is the row index of the
    patch's center pixel. Output is (N, 4 * C) float64, ordered
    [spectral center, spectral mean, lidar center, lidar mean]; float32
    maps are summed in float64 by one ``einsum`` per branch, without a
    float64 copy of the maps. The extract path that pools encoder hidden
    maps here is described in the ``model`` module docstring.
    """
    fh = np.asarray(feats_hsi)
    fl = np.asarray(feats_lidar)
    n_points = fh.shape[1]
    return np.concatenate(
        [fh[:, center], np.einsum("nxc->nc", fh, dtype=np.float64) / n_points,
         fl[:, center], np.einsum("nxc->nc", fl, dtype=np.float64) / n_points],
        axis=1, dtype=np.float64,
    )


def raw_patch_features(patchset) -> np.ndarray:
    """Original per-pixel data: center spectrum plus center height.

    This is the stacked HSI + LiDAR vector classified directly, the
    reference the extracted features are compared against; it carries no
    neighborhood context.
    """
    spec = patchset.center_spectra()
    height = patchset.lidar[:, patchset.lidar.shape[1] // 2, 2:3]
    return np.concatenate([spec.astype(np.float64),
                           height.astype(np.float64)], axis=1)


@dataclass
class LinearClassifier:
    classes: np.ndarray
    w: np.ndarray  # (K, D)
    b: np.ndarray  # (K,)
    mean: np.ndarray
    std: np.ndarray


def train_classifier(feats: np.ndarray, labels: np.ndarray, epochs: int = 100,
                     seed: int = 0) -> LinearClassifier:
    """One-vs-rest hinge-loss linear classifier.

    All K classes advance together as one (K, D + 1) iterate over the
    same `epochs` shuffled passes, drawn from one generator. Each sample
    takes a subgradient step of size 1/(_LAMBDA * t), t the global step
    counter, in every row whose margin it violates; then each row is
    projected onto the ball of radius 1/sqrt(_LAMBDA). A sample that
    violates no row's margin takes the decay alone: the iterate never
    holds -0.0, so adding the update's +-0 would leave it unchanged, and
    the decay keeps every row strictly inside the ball, so the projection
    would scale by exactly 1. The result is bit for bit the full update's.

    The returned weights are the average over all iterates; the last
    iterate still swings with the final few samples at this step
    schedule, the average settles. The bias is a weight on a constant
    feature, so it shares the decay and projection; that keeps its scale
    commensurate with the scores. Deterministic given (features, labels,
    seed). A non-finite feature, or a column too large to standardize in
    float64, raises a ValueError naming its row and column; a NaN margin
    would otherwise count as no violation.
    """
    try:
        n_epochs = operator.index(epochs)
    except TypeError:
        n_epochs = 0  # a float, even nan or inf, would fail in range()
    if n_epochs < 1:
        raise ValueError(f"epochs must be an integer at least 1, got {epochs!r}")
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels)
    if feats.ndim != 2 or feats.shape[0] != labels.shape[0]:
        raise ValueError("expected feats (N, D) with one label per row")
    if feats.shape[0] == 0:
        raise ValueError("cannot train a classifier on zero samples")
    _require_finite("feats", feats, ("row", "column"), feats.shape[0])
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std < _STD_FLOOR, 1.0, std)
    x = (feats - mean) / std
    # a finite column near float64's limit can overflow its mean
    _require_finite("standardized feats", x, ("row", "column"), x.shape[0])
    classes = np.unique(labels)
    if classes.shape[0] < 2:
        raise ValueError("need at least two classes to train a classifier")
    n, d = x.shape
    x = np.concatenate([x, np.ones((n, 1))], axis=1)
    y = np.where(labels[:, None] == classes, 1.0, -1.0)  # (n, K)
    radius = 1.0 / np.sqrt(_LAMBDA)
    rng = np.random.default_rng(seed)
    w = np.zeros((classes.shape[0], d + 1))
    avg = np.zeros_like(w)
    t = 1
    for _ in range(n_epochs):
        order = rng.permutation(n)
        for xi, yi in zip(x[order], y[order]):
            violated = yi * (w @ xi) < 1.0
            w *= 1.0 - 1.0 / t
            if violated.any():
                w += (violated * yi / (_LAMBDA * t))[:, None] * xi
                norms = np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True))
                w *= radius / np.maximum(norms, radius)
            avg += w
            t += 1
    avg /= t - 1
    return LinearClassifier(classes=classes, w=avg[:, :d], b=avg[:, d],
                            mean=mean, std=std)


def predict(model: LinearClassifier, feats: np.ndarray) -> np.ndarray:
    """Highest-scoring class per row; score ties go to the lowest class id."""
    x = (np.asarray(feats, dtype=np.float64) - model.mean) / model.std
    scores = x @ model.w.T + model.b
    return model.classes[np.argmax(scores, axis=1)]


def _positive_peaks(vecs: np.ndarray) -> np.ndarray:
    """The columns of vecs, each negated if its largest-magnitude entry
    (the first, on ties) is negative."""
    peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(peaks < 0, -1.0, 1.0)


def pca(feats: np.ndarray, n_components: int) -> np.ndarray:
    """(N, n_components) projection of the centered rows onto the
    principal axes, from the eigendecomposition of the covariance.

    Axis signs are fixed so each axis's largest-magnitude entry is
    positive, which makes the embedding reproducible across backends.
    """
    feats = np.asarray(feats, dtype=np.float64)
    n, d = feats.shape
    if not 1 <= n_components <= d:
        raise ValueError(f"n_components must be in [1, D = {d}], got {n_components}")
    centered = feats - feats.mean(axis=0)
    cov = centered.T @ centered / max(1, n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    return centered @ _positive_peaks(eigvecs[:, order])


def _knn_edges(x: np.ndarray, n_neighbors: int):
    """The n_neighbors nearest other rows of each row of x, (n, k), and
    the exact squared length sum((x_i - x_j)**2) of each of those edges.

    Rows are ranked by the expanded distance |x_i|^2 + |x_j|^2 - 2 x_i.x_j
    a block of rows at a time, so no (n, n) array is ever held; neither the
    block's distances nor its neighbour differences exceed about
    _KNN_BLOCK_BYTES."""
    n, d = x.shape
    sq = np.sum(x * x, axis=1)
    step = max(1, _KNN_BLOCK_BYTES // (8 * max(n, n_neighbors * d)))
    nn = np.empty((n, n_neighbors), dtype=np.intp)
    d2 = np.empty((n, n_neighbors))
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        dist = x[rows] @ x.T
        dist *= -2.0
        dist += sq[rows, None] + sq
        np.maximum(dist, 0.0, out=dist)
        dist[np.arange(rows.shape[0]), rows] = np.inf
        nn[rows] = np.argpartition(dist, n_neighbors - 1, axis=1)[:, :n_neighbors]
        # x_j - x_i squares to the same bits as x_i - x_j
        diff = x[nn[rows]]
        diff -= x[rows, None, :]
        d2[rows] = np.sum(np.square(diff, out=diff), axis=2)
    return nn, d2


def laplacian_eigenmaps(feats: np.ndarray, n_components: int,
                        n_neighbors: int = 10) -> np.ndarray:
    """Spectral embedding of the symmetrized kNN graph.

    The graph is sparse: each row keeps the n_neighbors rows nearest to
    it, found a block of rows at a time, and an edge joins i and j if
    either keeps the other. Of rows tied at the n_neighbors-th distance,
    which are kept is left to np.argpartition, not to row order. Each
    edge's length is recomputed exactly as sum((x_i - x_j)**2), which is
    the same for (i, j) and (j, i), so the weight matrix W is exactly
    symmetric. Edges carry heat-kernel weights exp(-d^2 / sigma^2) with
    sigma the median length of the edges that join distinct rows (1 if
    there are none). The embedding solves the generalized problem
    L y = lambda D y through its normalized form: the eigenvectors u of
    D^-1/2 W D^-1/2 with the n_components + 1 largest eigenvalues, found
    by ARPACK (eigsh) from a fixed start vector, give y = D^-1/2 u. The
    trivial one, eigenvalue 1, is dropped, so the rest belong to the
    n_components smallest nonzero lambda, each scaled to y^T D y = 1 and
    signed so its largest-magnitude entry is positive. On a repeated
    eigenvalue ARPACK returns one basis of its eigenspace, and that basis
    can change from call to call: rows that are all equal, for one, can
    embed differently each time.

    Components are taken of the weighted graph, so an edge whose weight
    underflows to 0 joins nothing and a row far from all others is a
    component of its own. If the graph is disconnected, only the largest
    component is embedded; other rows are zero and a warning is issued.
    The largest component must hold at least n_components + 2 rows, or a
    ValueError is raised.
    """
    # imported here: no other function needs scipy, which is slow to load
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import eigsh

    x = np.asarray(feats, dtype=np.float64)
    n = x.shape[0]
    if n_neighbors < 1 or n_neighbors >= n:
        raise ValueError(f"need 1 <= n_neighbors < n_samples = {n}, got {n_neighbors}")
    if n_components < 1 or n_components >= n:
        raise ValueError(f"need 1 <= n_components < n_samples = {n}, got {n_components}")
    nn, d2 = _knn_edges(x, n_neighbors)
    edges = (np.repeat(np.arange(n), n_neighbors), nn.reshape(-1))

    def union(values):
        # W v W^T as a sparse maximum, which stores no zeros: the edge
        # lengths are exact and the same both ways, so an edge kept by both
        # ends is stored once as (i, j) and once as (j, i) with one value
        w = csr_array((values.reshape(-1), edges), shape=(n, n))
        return w.maximum(w.T)

    # sigma skips edges between identical rows, whose exact length is 0:
    # when they are most of the edges, a median over all would be 0, and
    # every other edge would get weight 0
    lengths = np.sqrt(union(d2).data)
    sigma = np.median(lengths) if lengths.size else 1.0
    if sigma < _STD_FLOOR:
        sigma = 1.0
    # a row whose weights all underflow is left with degree 0, which D
    # must not hold; connected_components would count stored zeros as edges
    weights = union(np.exp(-d2 / (sigma * sigma)))
    n_comp, comp_labels = connected_components(weights, directed=False)
    out = np.zeros((n, n_components))
    if n_comp > 1:
        warnings.warn(
            f"neighbor graph has {n_comp} components; embedding the largest only",
            stacklevel=2,
        )
        keep = comp_labels == np.bincount(comp_labels).argmax()
    else:
        keep = np.ones(n, dtype=bool)
    idx = np.nonzero(keep)[0]
    # eigsh needs fewer eigenvectors than rows: n_components + 1 < m
    if idx.shape[0] < n_components + 2:
        raise ValueError(
            f"largest graph component is too small for the embedding: "
            f"{idx.shape[0]} rows, {n_components} components need at least "
            f"{n_components + 2}")
    w_sub = weights[idx][:, idx].tocoo()
    inv_sqrt_deg = 1.0 / np.sqrt(w_sub.sum(axis=1))
    # (d_i d_j)^-1/2 is one product for (i, j) and (j, i): S stays symmetric
    scale = inv_sqrt_deg[w_sub.row] * inv_sqrt_deg[w_sub.col]
    s = csr_array((w_sub.data * scale, (w_sub.row, w_sub.col)), shape=w_sub.shape)
    # a fixed start keeps earlier ARPACK calls from moving a result with
    # distinct eigenvalues; sqrt(deg) would not do, it is the trivial one
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, idx.shape[0])
    vals, vecs = eigsh(s, k=n_components + 1, which="LA", v0=v0)
    # descending eigenvalues; the first is the trivial constant solution
    order = np.argsort(vals)[::-1][1:]
    out[idx] = _positive_peaks(vecs[:, order] * inv_sqrt_deg[:, None])
    return out


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray,
                     classes: np.ndarray) -> np.ndarray:
    """(k, k) counts with rows = true class, columns = predicted class,
    both in the order of classes; the counts only, not the classes.

    classes must cover every label in y_true and y_pred; an uncovered
    label raises ValueError naming it.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays must have equal length")
    values, index = np.unique(np.concatenate([y_true, y_pred]),
                              return_inverse=True)
    classes = np.asarray(classes)
    found = np.isin(values, classes)
    if not found.all():
        missing = values[np.argmin(found)].item()
        raise ValueError(f"label {missing!r} is not in classes")
    # classes come in any order: map each distinct label to its position
    # in classes
    order = np.argsort(classes)
    index = order[np.searchsorted(classes, values, sorter=order)][index]
    k = classes.shape[0]
    n = y_true.shape[0]
    mat = np.bincount(index[:n] * k + index[n:], minlength=k * k)
    return mat.reshape(k, k)


def _agreement(mat: np.ndarray) -> dict:
    """oa, aa, kappa and per_class, as evaluate_split describes them, of a
    confusion matrix that holds a count; kappa = (p_o - p_e) / (1 - p_e)."""
    total = mat.sum()
    row_sums = mat.sum(axis=1)
    present = row_sums > 0
    if not np.all(present):
        warnings.warn(
            f"{int((~present).sum())} class(es) have no true samples; "
            "excluded from the average accuracy", stacklevel=2,
        )
    recalls = np.diag(mat)[present] / row_sums[present]
    per_class = np.full(mat.shape[0], None)
    per_class[present] = recalls
    oa = float(np.trace(mat) / total)
    p_e = float((row_sums / total) @ (mat.sum(axis=0) / total))
    if p_e >= 1.0:
        kappa = 0.0
    else:
        kappa = float((oa - p_e) / (1.0 - p_e))
    return {"oa": oa, "aa": float(recalls.mean()), "kappa": kappa,
            "per_class": per_class.tolist()}


def evaluate_split(feats: np.ndarray, labels: np.ndarray,
                   train_idx: np.ndarray, test_idx: np.ndarray,
                   seed: int = 0) -> dict:
    """Train the linear classifier on the train rows, score the test rows.

    Returns a dict with oa, aa, kappa, per-class recalls, the confusion
    matrix and the class list. A class absent from the test rows gets a
    recall of None and is left out of aa with a UserWarning "N class(es)
    have no true samples"; kappa is 0.0 when chance agreement p_e reaches
    1. An empty test split raises a ValueError before any training.
    """
    if len(test_idx) == 0:
        raise ValueError(
            f"the test split is empty ({len(train_idx)} train rows): a "
            "stratified split trains on at least one pixel per class, so a "
            "class needs 2 or more labeled pixels to be tested")
    model = train_classifier(feats[train_idx], labels[train_idx], seed=seed)
    preds = predict(model, feats[test_idx])
    classes = np.unique(labels)
    mat = confusion_matrix(labels[test_idx], preds, classes)
    return {**_agreement(mat), "confusion": mat, "classes": classes}
