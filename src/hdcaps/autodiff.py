"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray plus the backward closure that
scatters its gradient into its parents; calling :func:`backward` on a
scalar loss walks the graph once in reverse topological order.

One rule sets precision: the parameters' dtype decides. float32 data
stays float32 and any other data becomes float64; an op's output takes
numpy's promotion of its inputs, and a Python scalar operand of
``add`` / ``sub`` / ``mul`` / ``div`` takes the other operand's dtype, so
a loss weight or a mean's 1/n never widens a float32 pass. The model's
parameters are float32, so training and extraction run in single
precision; ``training.grad_check`` widens its own model to float64.

The op set is just large enough for the models in this package:
broadcast arithmetic (``add``, ``sub``, ``mul``, ``div``, and ``+ - *``
with a Tensor on the left), batched ``matmul``, the elementwise ``log``
and ``clip_min`` (``relu`` is ``clip_min`` at 0), ``softmax``, the
reductions ``tsum`` and ``tmean`` over all axes or one, and the shape
ops ``reshape`` and ``concat``, plus four fused ops that are each one
graph node with a closed-form backward. These are the capsule squash
nonlinearity (``squash_groups``, finite at the zero vector), the dense
layer (``linear``), attentive context normalization (``acn``) and the
attention-weighted mean that aggregates capsules (``weighted_mean``).
The elementwise ``sqrt`` is the one op that no package code calls: the
tests build a composite attentive context normalization from the plain
ops as the oracle for ``acn``, and that oracle needs it.

One rule sets what the graph tracks: constants never get a gradient.
A leaf that :func:`as_tensor` makes from a non-Tensor (input data,
rotations, scalar weights, parameter arrays) is a constant, and so is
every op output whose inputs are all constants. A constant keeps no
parents and no closure, so a pass whose inputs are all constants builds
no graph and its intermediates are freed by refcount as soon as they go
out of scope.

An op joins the graph through ``_op``: it gives its forward value and one
local gradient function per parent, and ``_op`` alone skips a constant
parent and sums each gradient down to its parent's shape. ``acn`` and
``weighted_mean``, whose two gradients share their intermediates, attach
their own closures with the same constant rule.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "linear",
    "relu",
    "log",
    "sqrt",
    "softmax",
    "tsum",
    "tmean",
    "reshape",
    "concat",
    "clip_min",
    "squash_groups",
    "acn",
    "weighted_mean",
]

SQUASH_EPS = 1e-8


class Tensor:
    """A node in the computation graph.

    ``Tensor(data)`` is a trainable leaf. An op passes its inputs as
    ``parents``; its output is a graph node if some input is not a
    constant, and a constant otherwise. float32 data stays float32; any
    other data becomes float64.
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "_const")

    def __init__(self, data, parents=()):
        data = np.asarray(data)
        if data.dtype != np.float32:
            data = data.astype(np.float64, copy=False)
        self.data = data
        self.grad = None
        self._backward = None
        self._parents = ()
        self._const = bool(parents)
        for p in parents:
            if not p._const:
                self._parents = parents
                self._const = False
                break

    # no package code reads it, but perfbench's timed calls are keyed by
    # their arguments' shapes (`run.py::_arg_key`): without it, same-named
    # calls on Tensors of different shapes would share one best time
    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # operator sugar, with the Tensor on the left
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def as_tensor(x) -> Tensor:
    """x itself if it is a Tensor, else x as a constant leaf."""
    if isinstance(x, Tensor):
        return x
    const = Tensor(x)
    const._const = True
    return const


def _accum(t: Tensor, g: np.ndarray) -> None:
    # grads are never mutated in place, so sharing memory with a view is fine
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the operand it belongs to."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _op(value, parents, *grads) -> Tensor:
    """The op's output; its backward hands each non-constant parent
    grads[i] of the output gradient, summed down to that parent's shape."""
    out = Tensor(value, parents)
    if out._parents:
        # a partial allocates fewer objects than a nested closure, which
        # halves the garbage collections of a train step
        out._backward = functools.partial(_backprop, out, grads)
    return out


def _backprop(out: Tensor, grads) -> None:
    for p, grad in zip(out._parents, grads):
        if not p._const:
            _accum(p, _unbroadcast(grad(out.grad), p.data.shape))


def _topo(root: Tensor) -> list:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(node) into every node reachable from root."""
    order = _topo(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
            # the closure holds its own output, so dropping it breaks the
            # cycle and lets refcounting free the graph
            node._backward = None


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a Python scalar takes the other's dtype."""
    if isinstance(a, (int, float)):
        b = as_tensor(b)
        return as_tensor(np.asarray(a, dtype=b.data.dtype)), b
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        return a, as_tensor(np.asarray(b, dtype=a.data.dtype))
    return a, as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(a.data + b.data, (a, b), lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(a.data - b.data, (a, b), lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(a.data * b.data, (a, b), lambda g: g * b.data, lambda g: g * a.data)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    return _op(a.data / b.data, (a, b), lambda g: g / b.data,
               lambda g: -g * a.data / (b.data * b.data))


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch broadcasting; operands must be >= 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    return _op(a.data @ b.data, (a, b), lambda g: g @ b.data.swapaxes(-1, -2),
               lambda g: a.data.swapaxes(-1, -2) @ g)


def linear(x, w, b=None) -> Tensor:
    """x @ w (+ b) for x (..., Din), w (Din, Dout) and b (Dout,), as one node.

    The backward flattens the leading axes of x into rows, so the weight
    gradient is one GEMM and the bias gradient one ones-vector GEMV. A
    one-column w gets its input gradient as a broadcast multiply.
    """
    x, w = as_tensor(x), as_tensor(w)
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(
            f"linear expects x (..., Din) and w (Din, Dout), got "
            f"{x.data.shape} and {w.data.shape}"
        )
    d_in, d_out = w.data.shape
    y = x.data @ w.data
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        # y is the GEMM's fresh output: add in place unless b widens it
        y = y.astype(np.result_type(y, b.data), copy=False)
        y += b.data
        parents = (x, w, b)
    # numpy's batched matmul runs 2-3x slower on a transposed 2-D operand
    # than on a contiguous copy of it
    return _op(y, parents,
               lambda g: (g * w.data[:, 0] if d_out == 1
                          else g @ np.ascontiguousarray(w.data.T)),
               lambda g: x.data.reshape(-1, d_in).T @ g.reshape(-1, d_out),
               lambda g: np.ones(g.size // d_out, g.dtype) @ g.reshape(-1, d_out))


def relu(a) -> Tensor:
    return clip_min(a, 0.0)


def log(a) -> Tensor:
    a = as_tensor(a)
    return _op(np.log(a.data), (a,), lambda g: g / a.data)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    y = np.sqrt(a.data)
    return _op(y, (a,), lambda g: g * 0.5 / y)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    # numpy takes a max along a short last axis row by row; along the
    # leading axis of a contiguous copy it runs vectorized, to the same bits
    peak = np.ascontiguousarray(a.data.swapaxes(axis, 0)).max(axis=0, keepdims=True)
    shifted = a.data - peak.swapaxes(0, axis)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _op(y, (a,), lambda g: (g - (g * y).sum(axis=axis, keepdims=True)) * y)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    squeezed = axis is not None and not keepdims
    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a,),
               lambda g: np.broadcast_to(np.expand_dims(g, axis) if squeezed else g,
                                         a.data.shape))


def tmean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _op(a.data.reshape(shape), (a,), lambda g: g.reshape(a.data.shape))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return _op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
               *(lambda g, i=i: np.split(g, splits, axis=axis)[i]
                 for i in range(len(tensors))))


def clip_min(a, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes only where a was above the floor."""
    a = as_tensor(a)
    return _op(np.maximum(a.data, lo), (a,), lambda g: g * (a.data > lo))


def squash_groups(a) -> Tensor:
    """Capsule squash along the last axis: v -> (|v|^2 / (1+|v|^2)) * v / (|v| + eps),
    with eps = ``SQUASH_EPS``.

    The backward pass uses the closed form

        d out_j / d v = s * e_j + 2 v_j s'(n) v,
        s'(n) = ((r + eps) - r (1 + n) / 2) / ((1 + n)(r + eps))^2,

    with n = |v|^2 and r = |v|, which is finite at v = 0 (the chain rule
    through a bare sqrt is not).
    """
    a = as_tensor(a)
    n2 = np.sum(a.data * a.data, axis=-1, keepdims=True)
    r = np.sqrt(n2)
    u = (1.0 + n2) * (r + SQUASH_EPS)
    s = n2 / u

    def grad(g):
        ds = ((r + SQUASH_EPS) - 0.5 * r * (1.0 + n2)) / (u * u)
        inner = np.sum(g * a.data, axis=-1, keepdims=True)
        return g * s + 2.0 * a.data * ds * inner

    return _op(a.data * s, (a,), grad)


def acn(h, w, eps: float) -> Tensor:
    """Weighted standardization over the points axis (-2), as one node.

    h: (..., X, H) features; w: (..., X, 1) nonnegative weights with the
    same leading shape. With u = w / sum_x w, mu = sum_x u h,
    v = sum_x u (h - mu)^2 and r = 1 / sqrt(v + eps), the output is
    y = (h - mu) r. The backward uses the closed form

        dh = r (g - u (sum_x g + y sum_x(g y))),
        dw = sum_H[-1/2 sum_x(g y) (y^2 - v r^2) - y sum_x g] / sum_x w,

    where the sums over the points and over H are GEMVs or einsum
    contractions rather than broadcast temporaries.

    Unlike every other op it attaches its own closure, not through
    ``_op``: both gradients share sum_x g, sum_x(g y) and r, which two
    gradient functions would each recompute.
    """
    h, w = as_tensor(h), as_tensor(w)
    wsum = w.data.sum(axis=-2, keepdims=True)
    wt = w.data.swapaxes(-1, -2)
    centered = h.data - (wt @ h.data) / wsum
    var = (wt @ (centered * centered)) / wsum
    std = np.sqrt(var + eps)
    y = centered / std
    out = Tensor(y, (h, w))

    def bw():
        g = out.grad
        r = 1.0 / std
        ones = np.ones((1, g.shape[-2]), g.dtype)
        sg = ones @ g
        sgy = np.einsum("...xh,...xh->...h", g, y)[..., None, :]
        if not w._const:
            dw = (0.5 * (sgy * var * r * r).sum(axis=-1, keepdims=True)
                  - y @ sg.swapaxes(-1, -2)
                  - 0.5 * ((y * y) @ sgy.swapaxes(-1, -2)))
            _accum(w, dw / wsum)
        if not h._const:
            # dh = r (g - u (sg + y sgy)), built in place in one buffer
            dh = y * sgy
            dh += sg
            dh *= w.data / wsum
            dh -= g
            dh *= -r
            _accum(h, dh)

    if out._parents:
        out._backward = bw
    return out


def weighted_mean(attn, values, eps: float) -> Tensor:
    """attn^T values / (sum_x attn + eps), as one node.

    attn: (..., X, K) nonnegative weights; values: (..., X, D) with the
    same leading shape; the output (..., K, D) holds one weighted mean of
    the value rows per column of attn. With g' = g / den, the backward is
    dvalues = attn g' and dattn = values g'^T - sum_D(g' out).

    Like ``acn`` it attaches its own closure, not through ``_op``: both
    gradients read g', which two gradient functions would each compute.
    """
    attn, values = as_tensor(attn), as_tensor(values)
    den = (np.ones(attn.data.shape[-2], attn.data.dtype) @ attn.data)[..., None] + eps
    y = (attn.data.swapaxes(-1, -2) @ values.data) / den
    out = Tensor(y, (attn, values))

    def bw():
        gs = out.grad / den
        if not attn._const:
            _accum(attn, values.data @ gs.swapaxes(-1, -2)
                   - np.einsum("...kd,...kd->...k", gs, y)[..., None, :])
        if not values._const:
            _accum(values, attn.data @ gs)

    if out._parents:
        out._backward = bw
    return out
