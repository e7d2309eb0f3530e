"""Feature fusion, linear classifier, baselines and agreement metrics."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from hdcaps import dataio, evaluation


# ---------------------------------------------------------------- fusion

def test_fuse_zero_maps_gives_zero_vector():
    fh = np.zeros((1, 5, 3))
    fl = np.zeros((1, 5, 3))
    out = evaluation.fuse_features(fh, fl, center=2)
    assert out.shape == (1, 12)
    np.testing.assert_array_equal(out, np.zeros((1, 12)))


def test_fuse_center_and_mean_ordering():
    # center row 1, means chosen by hand: [1, 2, 10, 15]
    fh = np.array([[[3.0], [1.0], [2.0]]])
    fl = np.array([[[20.0], [10.0], [15.0]]])
    out = evaluation.fuse_features(fh, fl, center=1)
    np.testing.assert_allclose(out, [[1.0, 2.0, 10.0, 15.0]])


def test_fuse_invariant_to_non_center_row_order():
    rng = np.random.default_rng(0)
    fh = rng.normal(size=(1, 3, 4))
    fl = rng.normal(size=(1, 3, 2))
    base = evaluation.fuse_features(fh, fl, center=1)
    perm = [2, 1, 0]  # swap the two non-center rows
    out = evaluation.fuse_features(fh[:, perm], fl[:, perm], center=1)
    np.testing.assert_allclose(out, base, atol=1e-12)


def test_fuse_branches_may_differ_in_width():
    out = evaluation.fuse_features(np.ones((1, 4, 2)), np.ones((1, 4, 3)),
                                   center=0)
    assert out.shape == (1, 2 * 2 + 2 * 3)


def test_fuse_batch_matches_per_instance():
    rng = np.random.default_rng(1)
    fh = rng.normal(size=(6, 5, 3))
    fl = rng.normal(size=(6, 5, 2))
    batch = evaluation.fuse_features(fh, fl, center=2)
    assert batch.shape == (6, 10)
    for i in range(6):
        np.testing.assert_array_equal(
            batch[i:i + 1],
            evaluation.fuse_features(fh[i:i + 1], fl[i:i + 1], center=2))


def test_raw_patch_features_center_spectrum_and_height(tmp_path):
    hsi, elev, labels = dataio.gen_synthetic(
        12, 12, 3, 5, np.random.default_rng(0))
    ps = dataio.extract_patches(hsi, elev, labels, b=3)
    raw = evaluation.raw_patch_features(ps)
    assert raw.shape == (len(ps), 6)
    np.testing.assert_allclose(raw[:, :5], np.asarray(ps.hsi)[:, 1, 1, :], atol=1e-6)
    np.testing.assert_allclose(raw[:, 5], ps.lidar[:, 4, 2], atol=1e-6)


# ------------------------------------------------------------ classifier

def test_classifier_separates_two_point_classes():
    feats = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    labels = np.array([1, 1, 2, 2])
    clf = evaluation.train_classifier(feats, labels, seed=0)
    pred = evaluation.predict(clf, feats)
    np.testing.assert_array_equal(pred, labels)
    assert evaluation.predict(clf, np.array([[-1.0]]))[0] == 1
    assert evaluation.predict(clf, np.array([[1.0]]))[0] == 2
    assert evaluation.predict(clf, np.array([[-30.0]]))[0] == 1
    assert evaluation.predict(clf, np.array([[30.0]]))[0] == 2


def test_classifier_identical_features_predicts_majority():
    feats = np.ones((8, 3))
    labels = np.array([1, 1, 1, 1, 1, 3, 3, 3])
    for seed in range(3):
        clf = evaluation.train_classifier(feats, labels, seed=seed)
        pred = evaluation.predict(clf, feats)
        np.testing.assert_array_equal(pred, np.ones(8, dtype=np.int64))


def test_classifier_sample_duplication_keeps_train_predictions():
    rng = np.random.default_rng(2)
    feats = np.vstack([rng.normal(size=(10, 2)) - 2.0,
                       rng.normal(size=(10, 2)) + 2.0])
    labels = np.repeat([0, 1], 10)
    base = evaluation.train_classifier(feats, labels, seed=0)
    dup = evaluation.train_classifier(np.vstack([feats, feats]),
                                      np.concatenate([labels, labels]),
                                      seed=0)
    np.testing.assert_array_equal(evaluation.predict(base, feats),
                                  evaluation.predict(dup, feats))


def test_classifier_rejects_degenerate_input():
    with pytest.raises(ValueError):
        evaluation.train_classifier(np.ones((4, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        evaluation.train_classifier(np.ones((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        evaluation.train_classifier(np.ones((4, 2)), np.array([0, 1, 0]))


def test_classifier_rejects_labels_that_are_not_one_dimensional():
    # a column of labels, (N, 1), used to fail inside the loop on a
    # broadcast between the labels and the classes
    with pytest.raises(ValueError, match="one label per row"):
        evaluation.train_classifier(np.arange(8.0).reshape(4, 2),
                                    np.array([[0], [1], [0], [1]]))


def test_classifier_deterministic_for_fixed_seed():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    a = evaluation.train_classifier(feats, labels, seed=7)
    b = evaluation.train_classifier(feats, labels, seed=7)
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.b, b.b)


def test_predict_rejects_features_of_another_width():
    clf = evaluation.LinearClassifier(classes=np.array([2, 5]),
                                      w=np.zeros((2, 3)), b=np.zeros(2),
                                      mean=np.zeros(3), std=np.ones(3))
    with pytest.raises(ValueError, match=r"\(N, 3\) .* width 3, got shape \(5, 4\)"):
        evaluation.predict(clf, np.ones((5, 4)))
    with pytest.raises(ValueError, match=r"got shape \(3,\)"):
        evaluation.predict(clf, np.ones(3))


def test_predict_score_tie_takes_lowest_class_id():
    clf = evaluation.LinearClassifier(classes=np.array([2, 5]),
                                      w=np.zeros((2, 3)), b=np.zeros(2),
                                      mean=np.zeros(3), std=np.ones(3))
    assert evaluation.predict(clf, np.ones((1, 3)))[0] == 2


@pytest.mark.parametrize("kwargs", [
    {"epochs": float("nan")}, {"epochs": float("inf")}, {"epochs": 2.5},
    {"epochs": "3"}, {"epochs": 0}, {"epochs": -1},
])
def test_classifier_rejects_bad_settings(kwargs):
    feats = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    labels = np.array([1, 1, 2, 2])
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        evaluation.train_classifier(feats, labels, **kwargs)


# the probe's L2 weight, a constant of evaluation; written out here so the
# oracles below do not read it from the code they check
PROBE_LAMBDA = 1e-4


def _per_class_pegasos(feats, labels, lam, epochs, seed):
    """Reference probe: one Pegasos run per class, each from a fresh
    generator with the same seed, so every class sees the same sample
    order. The shared (K, D + 1) iterate must match it."""
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    x = (feats - mean) / std
    classes = np.unique(labels)
    n, d = x.shape
    x = np.concatenate([x, np.ones((n, 1))], axis=1)
    radius = 1.0 / np.sqrt(lam)
    w = np.zeros((classes.shape[0], d))
    b = np.zeros(classes.shape[0])
    for k, cls in enumerate(classes):
        y = np.where(labels == cls, 1.0, -1.0)
        rng = np.random.default_rng(seed)
        wk = np.zeros(d + 1)
        avg = np.zeros(d + 1)
        t = 1
        for _ in range(epochs):
            for i in rng.permutation(n):
                step = 1.0 / (lam * t)
                violated = y[i] * (x[i] @ wk) < 1.0
                wk *= 1.0 - 1.0 / t
                if violated:
                    wk += step * y[i] * x[i]
                norm = np.linalg.norm(wk)
                if norm > radius:
                    wk *= radius / norm
                avg += wk
                t += 1
        avg /= t - 1
        w[k] = avg[:d]
        b[k] = avg[d]
    return evaluation.LinearClassifier(classes=classes, w=w, b=b,
                                       mean=mean, std=std)


def test_classifier_matches_per_class_oracle():
    rng = np.random.default_rng(2024)
    for case in range(32):
        k = 2 if case % 4 == 0 else int(rng.integers(2, 9))
        n = int(rng.integers(max(k, 12), 80))
        d = int(rng.integers(1, 12))
        centers = rng.normal(size=(k, d)) * 2.0
        labels = np.concatenate([np.arange(k),
                                 rng.integers(0, k, size=n - k)])
        feats = centers[labels] + rng.normal(size=(n, d))
        if case % 3 == 0:
            feats[:, 0] = 3.5  # a constant column
        if case % 5 == 0:
            feats = np.vstack([feats, feats[: n // 2]])  # duplicated rows
            labels = np.concatenate([labels, labels[: n // 2]])
        epochs = int(rng.integers(1, 6))
        seed = int(rng.integers(0, 1000))
        got = evaluation.train_classifier(feats, labels, epochs=epochs, seed=seed)
        want = _per_class_pegasos(feats, labels, PROBE_LAMBDA, epochs, seed)
        scale = max(np.abs(want.w).max(), np.abs(want.b).max())
        np.testing.assert_array_equal(got.classes, want.classes)
        assert np.abs(got.w - want.w).max() <= 1e-13 * scale, case
        assert np.abs(got.b - want.b).max() <= 1e-13 * scale, case
        held_out = centers[rng.integers(0, k, size=200)] \
            + rng.normal(size=(200, d)) * 1.5
        np.testing.assert_array_equal(evaluation.predict(got, held_out),
                                      evaluation.predict(want, held_out))
        np.testing.assert_array_equal(evaluation.predict(got, feats),
                                      evaluation.predict(want, feats))


def _pegasos_full_update(feats, labels, lam, epochs, seed):
    """Reference probe: the shared-iterate loop with the full update on
    every step (rank-1 ``np.outer`` step, ``np.linalg.norm`` projection),
    even when the sample violates no margin. Returns (w, b, steps that
    violated some margin, all steps)."""
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    x = (feats - mean) / std
    classes = np.unique(labels)
    n, d = x.shape
    x = np.concatenate([x, np.ones((n, 1))], axis=1)
    y = np.where(labels[:, None] == classes, 1.0, -1.0)  # (n, K)
    radius = 1.0 / np.sqrt(lam)
    rng = np.random.default_rng(seed)
    w = np.zeros((classes.shape[0], d + 1))
    avg = np.zeros_like(w)
    t = 1
    violating = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            violated = y[i] * (w @ x[i]) < 1.0
            violating += bool(violated.any())
            w *= 1.0 - 1.0 / t
            w += np.outer(violated * y[i] / (lam * t), x[i])
            norms = np.linalg.norm(w, axis=1)
            w *= (radius / np.maximum(norms, radius))[:, None]
            avg += w
            t += 1
    avg /= t - 1
    return avg[:, :d], avg[:, d], violating, t - 1


@pytest.mark.parametrize("spread", ["separated", "overlapping"])
def test_classifier_matches_full_update_bit_for_bit(spread):
    # in the median case, separated blobs leave most steps violating no
    # margin, so most skip the update; overlapping ones leave most
    # steps violating one. At the probe's lam the first two passes still
    # violate often, so every problem runs at least three
    rng = np.random.default_rng(33 if spread == "separated" else 34)
    sep = 25.0 if spread == "separated" else 0.3
    shares = []
    for case in range(24):
        k = 2 + case % 7
        n = int(rng.integers(max(k, 12), 80))
        d = int(rng.integers(1, 12))
        centers = rng.normal(size=(k, d)) * sep
        labels = np.concatenate([np.arange(k),
                                 rng.integers(0, k, size=n - k)])
        feats = centers[labels] + rng.normal(size=(n, d))
        if case % 3 == 0:
            feats[:, 0] = 3.5  # a constant column
        if case % 4 == 1:
            feats = np.vstack([feats, feats[: n // 2]])  # duplicated rows
            labels = np.concatenate([labels, labels[: n // 2]])
        epochs = 3 + case % 6
        seed = int(rng.integers(0, 1000))
        got = evaluation.train_classifier(feats, labels, epochs=epochs, seed=seed)
        w, b, violating, steps = _pegasos_full_update(feats, labels, PROBE_LAMBDA,
                                                      epochs, seed)
        assert got.w.tobytes() == w.tobytes(), case
        assert got.b.tobytes() == b.tobytes(), case
        shares.append(violating / steps)
    if spread == "separated":
        assert np.median(shares) < 0.5
    else:
        assert np.median(shares) > 0.5


@pytest.mark.parametrize("k, n, d", [(4, 28, 200), (4, 29, 32), (15, 60, 32)])
def test_classifier_matches_full_update_at_benchmark_shapes(k, n, d):
    # perfbench's evaluate trains the probe for 100 epochs on 28-29 rows of
    # K = 4 classes, 200 fused features or 32 eigenmap features wide; 15 is
    # the class count of the Houston-shaped scene. Overlapping blobs make
    # most steps violate a margin and bind the projection, as there
    rng = np.random.default_rng(d + k)
    centers = rng.normal(size=(k, d)) * 0.3
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    feats = centers[labels] + rng.normal(size=(n, d))
    got = evaluation.train_classifier(feats, labels, epochs=100, seed=7)
    w, b, violating, steps = _pegasos_full_update(feats, labels, PROBE_LAMBDA,
                                                  100, 7)
    assert got.w.tobytes() == w.tobytes()
    assert got.b.tobytes() == b.tobytes()
    assert 0 < violating < steps


@pytest.mark.parametrize("bad, message", [
    (np.nan, r"feats holds a non-finite value \(nan\) at row 2, column 1"),
    (np.inf, r"feats holds a non-finite value \(inf\) at row 2, column 1"),
    (-np.inf, r"feats holds a non-finite value \(-inf\) at row 2, column 1"),
])
def test_classifier_rejects_non_finite_features(bad, message):
    feats = np.arange(12.0).reshape(6, 2)
    feats[2, 1] = bad
    feats[4, 0] = bad
    with pytest.raises(ValueError, match=message):
        evaluation.train_classifier(feats, np.array([0, 1, 0, 1, 0, 1]))


def test_classifier_rejects_column_too_large_to_standardize():
    # finite, but the column's sum overflows, so its mean is inf
    feats = np.array([[0.0, 1.7e308], [1.0, 1.7e308], [2.0, 1.0], [3.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"standardized feats .* row 0, column 1"):
            evaluation.train_classifier(feats, np.array([0, 1, 0, 1]))


def test_classifier_tolerates_constant_feature_column():
    feats = np.array([[0.0, 7.0], [1.0, 7.0], [4.0, 7.0], [5.0, 7.0]])
    labels = np.array([0, 0, 1, 1])
    clf = evaluation.train_classifier(feats, labels, epochs=50, seed=0)
    assert np.all(np.isfinite(clf.w)) and np.all(np.isfinite(clf.b))
    np.testing.assert_array_equal(evaluation.predict(clf, feats), labels)


# ------------------------------------------------------------------- pca

def test_pca_diagonal_line():
    x = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])
    z = evaluation.pca(x, 2)
    np.testing.assert_allclose(z[:, 0], np.sqrt(2.0) * np.array([1, -1, 2, -2]),
                               atol=1e-12)
    np.testing.assert_allclose(z.var(axis=0, ddof=1), [20.0 / 3.0, 0.0],
                               atol=1e-12)


def test_pca_axis_aligned_variances():
    a, b = np.sqrt(6.0), np.sqrt(1.5)
    x = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
    z = evaluation.pca(x, 2)
    np.testing.assert_allclose(z, x, atol=1e-12)
    np.testing.assert_allclose(z.var(axis=0, ddof=1), [4.0, 1.0], atol=1e-12)


def test_pca_matches_svd_oracle():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(12, 40))
        d = int(rng.integers(3, 9))
        k = int(rng.integers(1, d + 1))
        x = rng.normal(size=(n, d)) @ np.diag(rng.uniform(0.5, 3.0, d))
        z = evaluation.pca(x, k)
        centered = x - x.mean(axis=0)
        _, sv, vt = np.linalg.svd(centered, full_matrices=False)
        for i in range(k):
            ref = centered @ vt[i]
            np.testing.assert_allclose(z[:, i], ref * np.sign(ref @ z[:, i]),
                                       atol=1e-8)
            np.testing.assert_allclose(z[:, i].var(ddof=1), sv[i] ** 2 / (n - 1),
                                       atol=1e-8)


def test_pca_transform_is_centered_projection():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(15, 5))
    z = evaluation.pca(x, 3)
    centered = x - x.mean(axis=0)
    # x has full column rank, so the axes are recovered exactly
    axes = np.linalg.lstsq(centered, z, rcond=None)[0]
    np.testing.assert_allclose(axes.T @ axes, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(z, centered @ axes, atol=1e-12)
    # an orthogonal projection cannot grow the centered norm
    assert np.all(np.linalg.norm(z, axis=1)
                  <= np.linalg.norm(centered, axis=1) + 1e-8)


def test_pca_axes_have_positive_peaks():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d + 1))
        x = rng.normal(size=(3 * d, d))
        centered = x - x.mean(axis=0)
        axes = np.linalg.lstsq(centered, evaluation.pca(x, k), rcond=None)[0]
        peaks = axes[np.argmax(np.abs(axes), axis=0), np.arange(k)]
        assert np.all(peaks > 0), (seed, peaks)


def _two_step_pca(feats, n_components):
    """A fit that keeps mean and components, then a projection of the
    same matrix: the form pca replaced, kept as a bitwise oracle."""
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    mean = feats.mean(axis=0)
    centered = feats - mean
    cov = centered.T @ centered / max(1, n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    vecs = eigvecs[:, np.argsort(eigvals)[::-1][:n_components]]
    peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    comps = (vecs * np.where(peaks < 0, -1.0, 1.0)).T
    return (feats - mean) @ comps.T


def test_pca_bit_identical_to_two_step_form():
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 60))
        d = int(rng.integers(1, 12))
        k = int(rng.integers(1, d + 1))
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d)
        np.testing.assert_array_equal(evaluation.pca(x, k), _two_step_pca(x, k))


def test_pca_rejects_bad_component_count():
    x = np.random.default_rng(5).normal(size=(10, 4))
    with pytest.raises(ValueError, match=r"D = 4\], got 0"):
        evaluation.pca(x, 0)
    with pytest.raises(ValueError, match=r"D = 4\], got 5"):
        evaluation.pca(x, 5)


# ---------------------------------------------------- laplacian eigenmaps

def test_eigenmaps_separates_two_clusters():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(20, 3)) * 0.5
    b = rng.normal(size=(20, 3)) * 0.5 + np.array([5.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emb = evaluation.laplacian_eigenmaps(np.vstack([a, b]), 1,
                                             n_neighbors=20)
    sign = np.sign(emb[:, 0])
    assert len(set(sign[:20])) == 1
    assert len(set(sign[20:])) == 1
    assert sign[0] != sign[20]


def test_eigenmaps_three_point_line_matches_dense_oracle():
    line = np.array([[0.0], [1.0], [2.0]])
    got = evaluation.laplacian_eigenmaps(line, 1, n_neighbors=2)[:, 0]
    d2 = ((line[:, None, :] - line[None, :, :]) ** 2).sum(axis=-1)
    adj = ~np.eye(3, dtype=bool)
    sigma = np.median(np.sqrt(d2[adj]))
    w = np.where(adj, np.exp(-d2 / (sigma * sigma)), 0.0)
    deg = w.sum(axis=1)
    _, vecs = scipy.linalg.eigh(np.diag(deg) - w, np.diag(deg))
    oracle = vecs[:, 1]
    if got @ oracle < 0.0:
        oracle = -oracle  # overall sign is a convention, not a property
    np.testing.assert_allclose(got, oracle, atol=1e-9)
    assert abs(got[1]) < 1e-9
    assert abs(got[0] + got[2]) < 1e-9


def test_eigenmaps_duplicated_rows_coincide():
    rng = np.random.default_rng(11)
    base = np.vstack([rng.normal(size=(4, 2)) * 0.3,
                      rng.normal(size=(4, 2)) * 0.3 + 6.0])
    dup = np.vstack([base, base])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emb = evaluation.laplacian_eigenmaps(dup, 1, n_neighbors=15)
    np.testing.assert_allclose(emb[:8], emb[8:], atol=1e-12)
    sign = np.sign(emb[:8, 0])
    assert len(set(sign[:4])) == 1
    assert len(set(sign[4:])) == 1
    assert sign[0] != sign[4]


def test_eigenmaps_sigma_ignores_edges_between_duplicated_rows():
    # most kNN edges join a row to its duplicate; a median over all edges
    # made sigma roundoff, weighted every other edge 0 and left rows of
    # degree 0, so the generalized eigensolver failed
    x = np.random.default_rng(39).standard_normal((117, 3))
    x = np.concatenate([x, x[:58]])
    with pytest.warns(UserWarning, match="components"):
        emb = evaluation.laplacian_eigenmaps(x, 1, n_neighbors=1)
    assert emb.shape == (175, 1)
    assert np.all(np.isfinite(emb)) and np.any(emb != 0.0)


def test_eigenmaps_disconnected_graph_warns_and_zeroes_small_component():
    rng = np.random.default_rng(5)
    big = rng.normal(size=(21, 2)) * 0.4
    small = rng.normal(size=(15, 2)) * 0.4 + 50.0
    with pytest.warns(UserWarning, match="components"):
        emb = evaluation.laplacian_eigenmaps(np.vstack([big, small]), 1,
                                             n_neighbors=3)
    assert np.all(emb[21:] == 0.0)
    assert np.any(emb[:21] != 0.0)


def test_eigenmaps_row_whose_weights_all_underflow_is_its_own_component():
    # row 0 has kNN edges, but exp(-d^2 / sigma^2) of each is 0: degree 0
    x = np.random.default_rng(0).standard_normal((200, 5))
    x[0] += 1000.0
    with pytest.warns(UserWarning, match="2 components"):
        emb = evaluation.laplacian_eigenmaps(x, 4, 10)
    assert np.all(np.isfinite(emb))
    assert np.all(emb[0] == 0.0)
    assert np.all(np.any(emb[1:] != 0.0, axis=0))


def test_eigenmaps_component_too_small_raises():
    quad = np.array([[0.0], [0.1], [10.0], [10.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            evaluation.laplacian_eigenmaps(quad, 2, n_neighbors=1)
    # the component must hold n_components + 2 rows: the eigensolver finds
    # n_components + 1 eigenvectors, fewer than the rows
    line = np.arange(5.0)[:, None]
    assert evaluation.laplacian_eigenmaps(line, 3, n_neighbors=2).shape == (5, 3)
    with pytest.raises(ValueError, match="too small.*5 rows, 4 components need "
                                         "at least 6"):
        evaluation.laplacian_eigenmaps(line, 4, n_neighbors=2)


def test_eigenmaps_rejects_bad_arguments():
    x = np.random.default_rng(6).normal(size=(8, 2))
    with pytest.raises(ValueError, match="n_neighbors < n_samples = 8, got 0"):
        evaluation.laplacian_eigenmaps(x, 1, n_neighbors=0)
    with pytest.raises(ValueError, match="n_neighbors < n_samples = 8, got 8"):
        evaluation.laplacian_eigenmaps(x, 1, n_neighbors=8)
    with pytest.raises(ValueError, match="n_components < n_samples = 8, got 8"):
        evaluation.laplacian_eigenmaps(x, 8, n_neighbors=3)


def test_eigenmaps_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(25, 3))
    a = evaluation.laplacian_eigenmaps(x, 2, n_neighbors=6)
    # an unrelated ARPACK call in between must not change the next result
    unrelated = scipy.sparse.csr_array(np.diag(np.arange(1.0, 31.0)))
    scipy.sparse.linalg.eigsh(unrelated, k=2)
    b = evaluation.laplacian_eigenmaps(x, 2, n_neighbors=6)
    assert a.tobytes() == b.tobytes()


def test_eigenmaps_degenerate_call_leaves_later_calls_unchanged():
    # on equal rows every nontrivial eigenvalue is the same, and ARPACK may
    # return a different basis of that eigenspace on each call; a graph
    # with distinct eigenvalues still embeds to the same bytes afterwards
    x = np.random.default_rng(0).normal(size=(200, 5))
    before = evaluation.laplacian_eigenmaps(x, 4, n_neighbors=10)
    for _ in range(3):
        evaluation.laplacian_eigenmaps(np.ones((20, 3)), 3, n_neighbors=4)
    after = evaluation.laplacian_eigenmaps(x, 4, n_neighbors=10)
    assert before.tobytes() == after.tobytes()


def test_eigenmaps_match_dense_generalized_oracle():
    # a connected graph whose lowest eigenvalues are distinct, so each
    # eigenvector is defined up to sign
    x = np.random.default_rng(21).normal(size=(200, 3))
    k, m = 8, 4
    got = evaluation.laplacian_eigenmaps(x, m, n_neighbors=k)
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    adj = np.zeros(d2.shape, dtype=bool)
    adj[np.repeat(np.arange(200), k), np.argsort(d2, axis=1)[:, :k].reshape(-1)] = True
    adj |= adj.T
    sigma = np.median(np.sqrt(d2[adj]))
    w = np.where(adj, np.exp(-d2 / (sigma * sigma)), 0.0)
    deg = w.sum(axis=1)
    vals, vecs = scipy.linalg.eigh(np.diag(deg) - w, np.diag(deg))
    assert vals[1] > 1e-6 and np.all(np.diff(vals[1:m + 2]) > 1e-4)
    for col in range(m):
        oracle = vecs[:, col + 1]
        if got[:, col] @ oracle < 0.0:
            oracle = -oracle
        np.testing.assert_allclose(got[:, col], oracle, atol=1e-8)


def test_eigenmaps_never_allocate_an_n_by_n_array():
    # one (4000, 4000) float64 array is 128 MB
    x = np.random.default_rng(3).normal(size=(4000, 16))
    tracemalloc.start()
    try:
        evaluation.laplacian_eigenmaps(x, 4, n_neighbors=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("estimator", ["predict", "pca", "laplacian_eigenmaps"])
def test_estimators_reject_non_finite_features(estimator, bad, capfd):
    # before the check, predict gave a NaN row the lowest class id, pca
    # returned NaN and LAPACK wrote to stderr, and the eigenmap raised an
    # ArpackError on a NaN or zeroed an inf row with a warning
    clean = np.random.default_rng(6).normal(size=(12, 3))
    clf = evaluation.train_classifier(clean, np.arange(12) % 2, epochs=1)
    run = {
        "predict": lambda x: evaluation.predict(clf, x),
        "pca": lambda x: evaluation.pca(x, 2),
        "laplacian_eigenmaps": lambda x: evaluation.laplacian_eigenmaps(
            x, 2, n_neighbors=3),
    }[estimator]
    feats = clean.copy()
    feats[5, 2] = bad
    feats[8, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^feats holds a non-finite value "
                                             rf"\({bad}\) at row 5, column 2$"):
            run(feats)
    assert capfd.readouterr().err == ""


# --------------------------------------------------------------- metrics

def test_confusion_matrix_counts_and_class_order():
    mat = evaluation.confusion_matrix(np.array([0, 0, 1, 1]),
                                      np.array([0, 1, 1, 1]), np.array([0, 1]))
    np.testing.assert_array_equal(mat, [[1, 1], [0, 2]])


def test_confusion_matrix_explicit_classes_keep_empty_rows():
    mat = evaluation.confusion_matrix(
        np.array([1, 1]), np.array([1, 1]), classes=np.array([0, 1, 2]))
    np.testing.assert_array_equal(mat, [[0, 0, 0], [0, 2, 0], [0, 0, 0]])


def confusion_loop_oracle(y_true, y_pred, classes):
    """The former per-sample loop over a label -> index dict."""
    index = {cls: i for i, cls in enumerate(classes.tolist())}
    mat = np.zeros((classes.shape[0], classes.shape[0]), dtype=np.int64)
    for t, p in zip(y_true.tolist(), y_pred.tolist()):
        mat[index[t], index[p]] += 1
    return mat


def test_confusion_matrix_matches_loop_oracle():
    rng = np.random.default_rng(12)
    for trial in range(30):
        labels = rng.choice(20, size=rng.integers(2, 8), replace=False) - 5
        n = int(rng.integers(0, 60))
        y_true = rng.choice(labels, size=n)
        y_pred = rng.choice(labels, size=n)
        # evaluate_split's form: every label, sorted
        classes = np.unique(labels)
        if trial % 3:
            # explicit classes in any order, some absent from both arrays
            extra = np.setdiff1d(np.arange(-8, 20), labels)[:trial % 4]
            classes = rng.permutation(np.concatenate([labels, extra]))
        mat = evaluation.confusion_matrix(y_true, y_pred, classes)
        want = confusion_loop_oracle(y_true, y_pred, classes)
        assert mat.dtype == want.dtype
        np.testing.assert_array_equal(mat, want)


def test_confusion_matrix_rejects_length_mismatch():
    with pytest.raises(ValueError):
        evaluation.confusion_matrix(np.array([0, 1]), np.array([0]), np.array([0, 1]))


@pytest.mark.parametrize("y_true,y_pred", [([0, 7], [0, 1]), ([0, 1], [7, 1])])
def test_confusion_matrix_names_label_outside_classes(y_true, y_pred):
    with pytest.raises(ValueError, match="label 7 is not in classes"):
        evaluation.confusion_matrix(np.array(y_true), np.array(y_pred),
                                    classes=np.array([0, 1]))


def test_metrics_perfect_diagonal():
    scores = evaluation._agreement(np.array([[2, 0], [0, 2]]))
    assert scores["oa"] == 1.0
    assert scores["aa"] == 1.0
    assert scores["kappa"] == 1.0


def test_metrics_uniform_confusion():
    scores = evaluation._agreement(np.array([[1, 1], [1, 1]]))
    assert scores["oa"] == 0.5
    assert scores["aa"] == 0.5
    assert scores["kappa"] == 0.0


def test_metrics_mixed_confusion_hand_values():
    scores = evaluation._agreement(np.array([[4, 1], [2, 3]]))
    assert scores["oa"] == 0.7
    np.testing.assert_allclose(scores["aa"], 0.7, atol=1e-15)
    np.testing.assert_allclose(scores["kappa"], 0.4, atol=1e-15)


def test_metrics_invariant_to_class_relabeling():
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 9, size=(4, 4))
    perm = rng.permutation(4)
    pmat = mat[np.ix_(perm, perm)]
    scores = evaluation._agreement(mat)
    pscores = evaluation._agreement(pmat)
    for key in ("oa", "aa", "kappa"):
        np.testing.assert_allclose(pscores[key], scores[key], atol=1e-15)


def test_kappa_is_one_only_for_diagonal():
    assert evaluation._agreement(np.diag([3, 5]))["kappa"] == 1.0
    assert evaluation._agreement(np.array([[3, 1], [0, 5]]))["kappa"] < 1.0


def test_average_accuracy_skips_empty_class_with_warning():
    mat = np.array([[5, 0, 0], [2, 3, 0], [0, 0, 0]])
    with pytest.warns(UserWarning, match="no true samples"):
        aa = evaluation._agreement(mat)["aa"]
    np.testing.assert_allclose(aa, 0.8, atol=1e-15)


def separate_metrics_oracle(mat):
    """The former overall_accuracy, average_accuracy and kappa, and
    evaluate_split's per-class loop, each on its own pass over mat."""
    total = mat.sum()
    oa = float(np.trace(mat) / total)
    row_sums = mat.sum(axis=1)
    present = row_sums > 0
    aa = float((np.diag(mat)[present] / row_sums[present]).mean())
    p_o = np.trace(mat) / total
    p_e = float((mat.sum(axis=1) / total) @ (mat.sum(axis=0) / total))
    kappa = 0.0 if p_e >= 1.0 else float((p_o - p_e) / (1.0 - p_e))
    per_class = [
        float(mat[i, i] / row_sums[i]) if row_sums[i] > 0 else None
        for i in range(mat.shape[0])
    ]
    return {"oa": oa, "aa": aa, "kappa": kappa, "per_class": per_class}


def test_agreement_matches_separate_metrics_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = int(rng.integers(2, 10))
        mat = rng.integers(0, 40, size=(k, k))
        # some classes with no true sample; one row always keeps a count
        empty = rng.random(k) < 0.25
        empty[rng.integers(k)] = False
        mat[empty] = 0
        mat[~empty, 0] += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = evaluation._agreement(mat)
        want = separate_metrics_oracle(mat)
        assert list(got) == list(want)
        for key in want:
            assert got[key] == want[key], key


# --------------------------------------------------------- evaluate_split

def _three_blob_data():
    rng = np.random.default_rng(3)
    centers = [np.array([0.0, 0.0]), np.array([4.0, 0.0]),
               np.array([0.0, 4.0])]
    feats = np.vstack([rng.normal(size=(12, 2)) * 0.1 + c for c in centers])
    labels = np.repeat([0, 1, 2], 12)
    return feats, labels


def test_evaluate_split_perfect_on_separable_blobs():
    feats, labels = _three_blob_data()
    train = np.arange(0, 36, 2)
    test = np.arange(1, 36, 2)
    report = evaluation.evaluate_split(feats, labels, train, test)
    assert report["oa"] == 1.0
    assert report["aa"] == 1.0
    assert report["kappa"] == 1.0
    assert report["per_class"] == [1.0, 1.0, 1.0]
    assert sorted(report.keys()) == ["aa", "classes", "confusion", "kappa",
                                     "oa", "per_class"]


def test_evaluate_split_class_missing_from_test_gets_none():
    feats = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0],
                      [10.0, 0.0], [10.1, 0.0]])
    labels = np.array([0, 0, 1, 1, 2, 2])
    train = np.arange(6)
    test = np.array([0, 2])
    with pytest.warns(UserWarning, match="no true samples"):
        report = evaluation.evaluate_split(feats, labels, train, test)
    assert report["per_class"] == [1.0, 1.0, None]


def test_evaluate_split_deterministic():
    feats, labels = _three_blob_data()
    train = np.arange(0, 36, 2)
    test = np.arange(1, 36, 2)
    a = evaluation.evaluate_split(feats, labels, train, test, seed=1)
    b = evaluation.evaluate_split(feats, labels, train, test, seed=1)
    assert a["oa"] == b["oa"] and a["kappa"] == b["kappa"]
    np.testing.assert_array_equal(a["confusion"], b["confusion"])


def test_evaluate_split_empty_test_split_raises_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained on a split with no test rows")

    monkeypatch.setattr(evaluation, "train_classifier", no_training)
    feats = np.array([[0.0], [1.0]])
    labels = np.array([1, 2])
    with pytest.raises(ValueError, match="test split is empty.*2 or more"):
        evaluation.evaluate_split(feats, labels, np.arange(2), np.arange(0))


def test_evaluate_split_one_class_test_split_gives_zero_kappa():
    # both test rows are class 1 and predicted so: chance agreement p_e is 1
    feats = np.array([[0.0], [0.0], [0.0], [1.0]])
    labels = np.array([1, 1, 1, 2])
    with pytest.warns(UserWarning,
                      match="1 class\\(es\\) have no true samples") as record:
        report = evaluation.evaluate_split(feats, labels, np.array([0, 3]),
                                           np.array([1, 2]))
    # the warning points at evaluate_split, not at the helper it calls
    assert record[0].filename == evaluation.__file__
    assert report["oa"] == 1.0
    assert report["aa"] == 1.0
    assert report["kappa"] == 0.0
    assert report["per_class"] == [1.0, None]
