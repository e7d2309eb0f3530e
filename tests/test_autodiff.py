"""Finite-difference and identity checks for the reverse-mode core."""

import itertools
import sys

import numpy as np
import pytest

from hdcaps import autodiff as ad
from hdcaps import dataio, losses, model, training
from hdcaps.config import TrainConfig


def numeric_grad(f, x, h=1e-6):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        g.reshape(-1)[i] = (fp - fm) / (2.0 * h)
    return g


def check_op(build, *shapes, seed=0, tol=1e-6):
    """Compare analytic and numeric gradients of a scalar-valued graph.

    build maps len(shapes) Tensors to a scalar Tensor.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [ad.Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    ad.backward(out)
    for i, (arr, t) in enumerate(zip(arrays, tensors)):
        def f(x, i=i):
            vals = [ad.Tensor(a) for a in arrays]
            vals[i] = ad.Tensor(x)
            return float(build(*vals).data)

        num = numeric_grad(f, arr.copy())
        assert t.grad is not None, f"operand {i} got no gradient"
        np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


# a (4,) and a (3, 1) operand against a (3, 4) one, on each side
BROADCAST_SHAPES = [((3, 4), (4,)), ((4,), (3, 4)), ((3, 4), (3, 1)), ((3, 1), (3, 4))]


def test_add_broadcast_grad():
    for shapes in BROADCAST_SHAPES:
        check_op(lambda a, b: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))), *shapes)
        # mul with the same broadcast operand
        check_op(lambda a, b: ad.tsum(ad.mul(ad.mul(a, b), ad.mul(a, b))), *shapes)


def test_sub_div_grad():
    check_op(lambda a, b: ad.tsum(ad.div(a, ad.add(ad.mul(b, b), 1.0))),
             (2, 3), (2, 3))
    for shapes in BROADCAST_SHAPES:
        check_op(lambda a, b: ad.tsum(ad.mul(ad.sub(a, b), ad.sub(a, b))), *shapes)
        check_op(lambda a, b: ad.tsum(ad.div(a, ad.add(ad.mul(b, b), 1.0))), *shapes)


def test_matmul_grad_batched():
    check_op(lambda a, b: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
             (2, 3, 4), (4, 5))


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))


def test_relu_log_sqrt_grad():
    check_op(lambda a: ad.tsum(ad.relu(a)), (4, 5))
    check_op(lambda a: ad.tsum(ad.log(ad.add(ad.mul(a, a), 0.5))), (6,))
    check_op(lambda a: ad.tsum(ad.sqrt(ad.add(ad.mul(a, a), 1.0))), (2, 2))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    y = ad.softmax(ad.Tensor(rng.normal(size=(5, 7)) * 10), axis=-1)
    np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(y.data >= 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 6))
    a = ad.softmax(ad.Tensor(x), axis=-1).data
    b = ad.softmax(ad.Tensor(x + 123.0), axis=-1).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_grad_both_axes():
    check_op(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-1),
                                      ad.softmax(a, axis=-1))), (3, 5))
    check_op(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=-2), a)), (4, 3))


def test_reductions_grad():
    check_op(lambda a: ad.tsum(ad.mul(ad.tsum(a, axis=0), ad.tsum(a, axis=0))),
             (3, 4))
    check_op(lambda a: ad.tmean(ad.mul(a, a)), (5, 2))
    check_op(lambda a: ad.tsum(ad.mul(ad.tmean(a, axis=-1), ad.tmean(a, axis=-1))),
             (2, 3, 4))


def test_shape_ops_grad():
    check_op(lambda a: ad.tsum(ad.mul(ad.reshape(a, (6, 2)),
                                      ad.reshape(a, (6, 2)))), (3, 4))
    check_op(lambda a, b: ad.tsum(ad.mul(ad.concat([a, b], axis=1),
                                         ad.concat([a, b], axis=1))),
             (2, 3), (2, 4))


def test_clip_min_grad_gate():
    x = ad.Tensor(np.array([-1.0, 0.5, 2.0]))
    out = ad.tsum(ad.mul(ad.clip_min(x, 0.0), np.array([1.0, 1.0, 1.0])))
    ad.backward(out)
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0])


def test_squash_groups_value():
    v = np.array([[3.0, 4.0]])
    out = ad.squash_groups(ad.Tensor(v))
    # |v| = 5: (25/26) * v/5 = v * 5/26
    np.testing.assert_allclose(out.data, v * 5.0 / 26.0, rtol=1e-7)


def test_squash_groups_zero_vector():
    out = ad.squash_groups(ad.Tensor(np.zeros((2, 3))))
    np.testing.assert_allclose(out.data, 0.0)
    ad.backward(ad.tsum(out))
    # gradient must be finite (and is exactly 0 at the origin)
    assert np.all(np.isfinite(out._parents[0].grad))


def test_squash_groups_norm_below_one():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(10, 6)) * 50
    out = ad.squash_groups(ad.Tensor(v))
    norms = np.linalg.norm(out.data, axis=-1)
    assert np.all(norms < 1.0)


def test_squash_groups_grad():
    check_op(lambda a: ad.tsum(ad.mul(ad.squash_groups(a), a)), (4, 3),
             tol=1e-5)


def test_diamond_graph_accumulates_once():
    # y = x*x + x*x reuses the same node twice; d/dx = 4x
    x = ad.Tensor(np.array([3.0]))
    sq = ad.mul(x, x)
    out = ad.tsum(ad.add(sq, sq))
    ad.backward(out)
    np.testing.assert_allclose(x.grad, [12.0])


def test_operator_sugar_matches_functions():
    a = ad.Tensor(np.array([[1.0, 2.0]]))
    b = ad.Tensor(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose((a + b).data, ad.add(a, b).data)
    np.testing.assert_allclose((a - b).data, ad.sub(a, b).data)
    np.testing.assert_allclose((a * b).data, ad.mul(a, b).data)


def test_deep_chain_is_iterative():
    # a recursive topological sort would hit the recursion limit here
    x = ad.Tensor(np.array([1.0]))
    y = x
    for _ in range(5000):
        y = ad.add(y, 1.0)
    ad.backward(ad.tsum(y))
    np.testing.assert_allclose(x.grad, [1.0])


def test_backward_leaves_no_reference_cycles():
    # each closure captures its own output, so a graph that keeps its
    # closures after backward is a cycle only the cyclic collector frees
    import gc
    import weakref

    enabled = gc.isenabled()
    gc.disable()
    try:
        x = ad.Tensor(np.ones(4))
        y = ad.relu(x * 2.0)
        loss = ad.tsum(y)
        alive = weakref.ref(y.data)
        ad.backward(loss)
        del y, loss
        assert alive() is None
        np.testing.assert_allclose(x.grad, 2.0)
    finally:
        if enabled:
            gc.enable()


# ------------------------------------------------------------- constants

def test_constant_ops_build_no_graph():
    rng = np.random.default_rng(30)
    x = ad.as_tensor(rng.normal(size=(2, 5, 4)))
    w = ad.as_tensor(rng.normal(size=(4, 3)))
    h = ad.linear(x, w, ad.as_tensor(np.zeros(3)))
    weights = ad.reshape(ad.add(ad.mul(ad.tsum(h, axis=-1), ad.tsum(h, axis=-1)), 0.1),
                         (2, 5, 1))
    outs = [h, weights, ad.relu(h), ad.softmax(h, axis=-2), h * x.data[..., :3],
            h + 1.0, h - h, ad.div(h, 2.0), ad.sqrt(ad.clip_min(h, 0.1)), ad.log(weights),
            ad.squash_groups(h), ad.acn(h, weights, 1e-5),
            ad.weighted_mean(ad.softmax(h, axis=-1), x, 1e-8), ad.matmul(x, w),
            ad.tmean(h), ad.concat([h, h], axis=-1)]
    for out in outs:
        assert out._const and out._parents == () and out._backward is None
    # the same op on trainable leaves is a graph node
    x2, w2 = ad.Tensor(x.data), ad.Tensor(w.data)
    y = ad.linear(x2, w2)
    assert y._parents == (x2, w2) and y._backward is not None


def test_constant_ops_free_intermediates_by_refcount():
    # a graph that never runs backward is a cycle (each closure holds its
    # own output); ops on constants keep no closure, so refcount frees them
    import gc
    import weakref

    def intermediate_survives(trainable):
        x = ad.Tensor(np.ones(4)) if trainable else ad.as_tensor(np.ones(4))
        y = ad.relu(x * 2.0)
        alive = weakref.ref(y.data)
        loss = ad.tsum(y)
        del y, loss
        return alive() is not None

    enabled = gc.isenabled()
    gc.disable()
    try:
        assert intermediate_survives(trainable=True)
        assert not intermediate_survives(trainable=False)
    finally:
        gc.collect()
        if enabled:
            gc.enable()


def test_float32_stays_float32_and_other_data_becomes_float64():
    f32 = np.ones((2, 3), dtype=np.float32)
    for leaf in (ad.Tensor(f32), ad.as_tensor(f32)):
        assert leaf.data.dtype == np.float32
    for data in (np.ones(3), np.ones(3, dtype=np.float16), np.arange(3), 2.0, [1, 2]):
        assert ad.Tensor(data).data.dtype == np.float64
        assert ad.as_tensor(data).data.dtype == np.float64
    c = ad.as_tensor(f32)
    assert ad.linear(c, ad.as_tensor(np.ones((3, 2), np.float32))).data.dtype == np.float32
    # a float64 operand promotes the output, as in numpy
    assert ad.linear(c, ad.as_tensor(np.ones((3, 2), np.float32)),
                     ad.as_tensor(np.ones(2))).data.dtype == np.float64
    assert ad.add(c, ad.as_tensor(np.ones(3))).data.dtype == np.float64
    assert ad.mul(ad.Tensor(f32), np.ones(3)).data.dtype == np.float64


def test_python_scalar_takes_the_other_operands_dtype():
    # under NEP 50 a 0-d float64 array widens a float32 array, so a
    # Python scalar must not become one: it takes the other operand's dtype
    x = ad.Tensor(np.ones(3, dtype=np.float32))
    for out in (x + 1.0, ad.add(1.0, x), x - 2, ad.sub(2, x), x * 0.5, ad.mul(0.5, x),
                ad.div(x, 3.0), ad.div(3.0, x), ad.tmean(x), ad.mul(x, np.float64(0.1))):
        assert out.data.dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in out._parents)
    assert (ad.Tensor(np.ones(3)) * 0.5).data.dtype == np.float64
    loss = ad.tsum(x * 0.5 + 1.0)
    ad.backward(loss)
    assert x.grad.dtype == np.float32


def test_constants_get_no_gradient(monkeypatch):
    rng = np.random.default_rng(31)
    data = rng.normal(size=(2, 5, 4))
    rot = rng.normal(size=(3, 3))
    target = rng.normal(size=(2, 6, 3))
    shift = rng.normal(size=3)
    w = ad.Tensor(rng.normal(size=(4, 3)))
    b = ad.Tensor(rng.normal(size=3))
    x = ad.as_tensor(data)
    assert x._const and not w._const
    # an op whose inputs are all constants is a constant itself
    flat = ad.reshape(x, (10, 4))
    assert flat._const and flat._parents == () and flat._backward is None

    def loss(x_leaf, w, b, rot_leaf, shift_leaf):
        h = ad.matmul(ad.linear(x_leaf, w, b), rot_leaf) + shift_leaf
        return ad.mul(losses.reconstruction_loss(target, h), 0.5)

    arrays = (data, rot, shift)
    consts = [ad.as_tensor(a) for a in arrays]
    out = loss(consts[0], w, b, *consts[1:])
    # no op computes a gradient for a constant, and the chamfer target is
    # data: _accum is never handed a constant
    computed_for = []

    def recording_accum(t, g, real=ad._accum):
        computed_for.append(t)
        real(t, g)

    monkeypatch.setattr(ad, "_accum", recording_accum)
    ad.backward(out)
    assert computed_for and [t for t in computed_for if t._const] == []
    assert all(c.grad is None for c in consts)
    monkeypatch.undo()
    # the parameter gradients equal those with the data as trainable leaves
    leaves = [ad.Tensor(a) for a in arrays]
    w2, b2 = ad.Tensor(w.data.copy()), ad.Tensor(b.data.copy())
    ad.backward(loss(leaves[0], w2, b2, *leaves[1:]))
    assert all(t.grad is not None for t in leaves)
    np.testing.assert_array_equal(w.grad, w2.grad)
    np.testing.assert_array_equal(b.grad, b2.grad)


# ------------------------------------------------------------ fused ops

ACN_EPS = 1e-5


def test_linear_grad():
    proj = np.random.default_rng(5).normal(size=(2, 3, 5))
    check_op(lambda x, w, b: ad.tsum(ad.mul(ad.linear(x, w, b), proj)),
             (2, 3, 4), (4, 5), (5,))
    check_op(lambda x, w: ad.tsum(ad.mul(ad.linear(x, w), proj)),
             (2, 3, 4), (4, 5))


def test_linear_one_column_grad():
    proj = np.random.default_rng(6).normal(size=(2, 3, 1))
    check_op(lambda x, w, b: ad.tsum(ad.mul(ad.linear(x, w, b), proj)),
             (2, 3, 4), (4, 1), (1,))
    check_op(lambda x, w: ad.tsum(ad.mul(ad.linear(x, w), ad.linear(x, w))),
             (5, 4), (4, 1))


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 5))))
    with pytest.raises(ValueError):
        ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones(3)))


def test_acn_grad_unnormalized_weights():
    # w^2 + 0.1 gives positive weights whose sum over the points is not 1
    proj = np.random.default_rng(7).normal(size=(2, 5, 3))
    check_op(lambda h, w: ad.tsum(ad.mul(ad.acn(h, ad.add(ad.mul(w, w), 0.1), ACN_EPS),
                                         proj)),
             (2, 5, 3), (2, 5, 1), tol=1e-5)


def test_weighted_mean_grad():
    proj = np.random.default_rng(8).normal(size=(2, 3, 4))
    # as for acn: positive weights, not summing to 1, with a gradient everywhere
    check_op(lambda a, v: ad.tsum(ad.mul(ad.weighted_mean(ad.add(ad.mul(a, a), 0.1), v, 1e-8),
                                         proj)),
             (2, 5, 3), (2, 5, 4))


# The composite formulas the fused ops replace, kept as an oracle.

def composite_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def composite_acn(h, w, eps):
    wsum = ad.tsum(w, axis=-2, keepdims=True)
    mean = ad.div(ad.tsum(w * h, axis=-2, keepdims=True), wsum)
    centered = h - mean
    var = ad.div(ad.tsum(w * centered * centered, axis=-2, keepdims=True), wsum)
    return ad.div(centered, ad.sqrt(var + eps))


def composite_weighted_mean(attn, values, eps):
    # (..., X, K, 1) * (..., X, 1, D), summed over the points X
    lead, (x, k), d = attn.data.shape[:-2], attn.data.shape[-2:], values.data.shape[-1]
    products = ad.mul(ad.reshape(attn, lead + (x, k, 1)), ad.reshape(values, lead + (x, 1, d)))
    denom = ad.reshape(ad.tsum(attn, axis=-2), lead + (k, 1)) + eps
    return ad.div(ad.tsum(products, axis=-3), denom)


@pytest.mark.parametrize("fused,composite,shapes,positive", [
    (ad.linear, composite_linear, [(4, 6, 5), (5, 7), (7,)], ()),
    (ad.linear, composite_linear, [(4, 6, 5), (5, 1), (1,)], ()),
    (lambda h, w: ad.acn(h, w, ACN_EPS), lambda h, w: composite_acn(h, w, ACN_EPS),
     [(4, 6, 5), (4, 6, 1)], (1,)),
    (lambda a, v: ad.weighted_mean(a, v, 1e-8), lambda a, v: composite_weighted_mean(a, v, 1e-8),
     [(4, 6, 3), (4, 6, 5)], (0,)),
], ids=["linear", "linear_one_column", "acn", "weighted_mean"])
def test_fused_ops_match_composite(fused, composite, shapes, positive):
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=s) for s in shapes]
    for i in positive:
        arrays[i] = rng.uniform(0.1, 2.0, size=shapes[i])
    results = []
    for op in (fused, composite):
        inputs = [ad.Tensor(a.copy()) for a in arrays]
        out = op(*inputs)
        proj = np.random.default_rng(10).normal(size=out.data.shape)
        ad.backward(ad.tsum(ad.mul(out, proj)))
        results.append((out.data, [t.grad for t in inputs]))
    (y_f, g_f), (y_c, g_c) = results
    np.testing.assert_allclose(y_f, y_c, rtol=1e-12, atol=1e-15)
    for a, b in zip(g_f, g_c):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


# every op that takes two or more tensors, with operand shapes
MULTI_OPERAND_OPS = {
    "add": (ad.add, [(3, 4), (4,)]),
    "sub": (ad.sub, [(3, 1), (3, 4)]),
    "mul": (ad.mul, [(3, 4), (4,)]),
    "div": (ad.div, [(3, 4), (3, 1)]),
    "matmul": (ad.matmul, [(2, 3, 4), (4, 5)]),
    "linear": (ad.linear, [(2, 3, 4), (4, 5), (5,)]),
    "concat": (lambda *ts: ad.concat(ts, axis=1), [(2, 3), (2, 4)]),
    "acn": (lambda h, w: ad.acn(h, w, ACN_EPS), [(2, 5, 3), (2, 5, 1)]),
    "weighted_mean": (lambda a, v: ad.weighted_mean(a, v, 1e-8), [(2, 5, 3), (2, 5, 4)]),
}


@pytest.mark.parametrize("name", MULTI_OPERAND_OPS)
def test_constant_operand_gets_no_gradient(name, monkeypatch):
    # each mix of constant and trainable operands; a unary op on a
    # constant is a constant itself, with no closure to run
    op, shapes = MULTI_OPERAND_OPS[name]
    rng = np.random.default_rng(32)
    arrays = [rng.uniform(0.5, 2.0, size=s) for s in shapes]
    handed = []

    def recording_accum(t, g, real=ad._accum):
        handed.append(t)
        real(t, g)

    monkeypatch.setattr(ad, "_accum", recording_accum)
    for trainable in itertools.product((True, False), repeat=len(arrays)):
        if all(trainable) or not any(trainable):
            continue
        inputs = [ad.Tensor(a) if t else ad.as_tensor(a) for a, t in zip(arrays, trainable)]
        out = op(*inputs)
        handed.clear()
        ad.backward(ad.tsum(ad.mul(out, rng.normal(size=out.data.shape))))
        assert handed and not [t for t in handed if t._const]
        for t, is_trainable in zip(inputs, trainable):
            assert (t.grad is not None) == is_trainable
            if is_trainable:
                assert t.grad.shape == t.data.shape


# ------------------------------------------------------------ op set

def test_model_runs_every_op_but_sqrt():
    # autodiff keeps only the ops the model runs: one train step and one
    # extraction reach every name in __all__. sqrt is the one exception:
    # composite_acn, the oracle of the fused acn above, needs it.
    cfg = TrainConfig(K=2, C=3, b=3, H=8, n_blocks=1, m=2, G=2, d_cap=2, batch=2)
    hsi, elev, _ = dataio.gen_synthetic(5, 6, 2, 4, np.random.default_rng(0))
    patches = dataio.extract_patches(hsi, elev, np.ones((5, 6), np.int32), cfg.b)
    state = model.init_model(cfg, 4, np.random.default_rng(1))
    weights = losses.LossWeights(cfg.alpha, cfg.beta, cfg.gamma)
    source = ad.Tensor.__init__.__code__.co_filename
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == source:
            ran.add(frame.f_code)

    batch = np.arange(cfg.batch)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        training.train_step(state, training.AdamState(), model.parameters(state),
                            patches.hsi[batch], patches.lidar[batch],
                            np.random.default_rng(2), weights)
        model.fused_features(state, patches.hsi, patches.lidar)
    finally:
        sys.setprofile(previous)

    def code(name):
        obj = getattr(ad, name)
        return (obj.__init__ if isinstance(obj, type) else obj).__code__

    assert [name for name in ad.__all__ if code(name) not in ran] == ["sqrt"]
