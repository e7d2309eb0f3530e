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
broadcast arithmetic, batched matmul, softmax, reductions and shape
ops, plus four fused ops that are each one graph node with a
closed-form backward. These are the capsule squash nonlinearity
(``squash_groups``, finite at the zero vector), the dense layer
(``linear``), attentive context normalization (``acn``) and the
attention-weighted mean that aggregates capsules (``weighted_mean``).

One rule sets what the graph tracks: constants never get a gradient.
A leaf that :func:`as_tensor` makes from a non-Tensor (input data,
rotations, scalar weights, parameter arrays) is a constant, and so is
every op output whose inputs are all constants. A constant keeps no
parents and no closure, so a pass whose inputs are all constants builds
no graph and its intermediates are freed by refcount as soon as they go
out of scope.
"""

from __future__ import annotations

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
    "exp",
    "log",
    "sqrt",
    "softmax",
    "tsum",
    "tmean",
    "reshape",
    "swapaxes",
    "concat",
    "clip_min",
    "squash_groups",
    "acn",
    "weighted_mean",
]


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

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def as_tensor(x) -> Tensor:
    """x itself if it is a Tensor, else x as a constant leaf."""
    if isinstance(x, Tensor):
        return x
    const = Tensor(x)
    const._const = True
    return const


def _attach(out: Tensor, bw) -> Tensor:
    """Give an op's output its backward closure if it is a graph node."""
    if out._parents:
        out._backward = bw
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t._const:
        return
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
    out = Tensor(a.data + b.data, (a, b))

    def bw():
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape))

    return _attach(out, bw)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data - b.data, (a, b))

    def bw():
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(-out.grad, b.data.shape))

    return _attach(out, bw)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data * b.data, (a, b))

    def bw():
        if not a._const:
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if not b._const:
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _attach(out, bw)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data / b.data, (a, b))

    def bw():
        _accum(a, _unbroadcast(out.grad / b.data, a.data.shape))
        _accum(b, _unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))

    return _attach(out, bw)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch broadcasting; operands must be >= 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    out = Tensor(a.data @ b.data, (a, b))

    def bw():
        if not a._const:
            _accum(a, _unbroadcast(out.grad @ b.data.swapaxes(-1, -2), a.data.shape))
        if not b._const:
            _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ out.grad, b.data.shape))

    return _attach(out, bw)


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
    y = x.data @ w.data
    if b is None:
        parents = (x, w)
    else:
        b = as_tensor(b)
        y = y + b.data
        parents = (x, w, b)
    out = Tensor(y, parents)

    def bw():
        g = out.grad
        d_in, d_out = w.data.shape
        g2 = g.reshape(-1, d_out)
        if not w._const:
            _accum(w, x.data.reshape(-1, d_in).T @ g2)
        if b is not None and not b._const:
            _accum(b, np.ones(g2.shape[0], g2.dtype) @ g2)
        if not x._const:
            _accum(x, g * w.data[:, 0] if d_out == 1 else g @ w.data.T)

    return _attach(out, bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), (a,))

    def bw():
        _accum(a, out.grad * (a.data > 0.0))

    return _attach(out, bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data), (a,))

    def bw():
        _accum(a, out.grad * out.data)

    return _attach(out, bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data), (a,))

    def bw():
        _accum(a, out.grad / a.data)

    return _attach(out, bw)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.sqrt(a.data), (a,))

    def bw():
        _accum(a, out.grad * 0.5 / out.data)

    return _attach(out, bw)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (a,))

    def bw():
        g = out.grad
        _accum(a, (g - (g * y).sum(axis=axis, keepdims=True)) * y)

    return _attach(out, bw)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def bw():
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _attach(out, bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.data.shape[i] for i in axis]))
    else:
        n = a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), (a,))

    def bw():
        _accum(a, out.grad.reshape(a.data.shape))

    return _attach(out, bw)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.swapaxes(ax1, ax2), (a,))

    def bw():
        _accum(a, out.grad.swapaxes(ax1, ax2))

    return _attach(out, bw)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw():
        for t, g in zip(tensors, np.split(out.grad, splits, axis=axis)):
            _accum(t, g)

    return _attach(out, bw)


def clip_min(a, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes only where a was above the floor."""
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, lo), (a,))

    def bw():
        _accum(a, out.grad * (a.data > lo))

    return _attach(out, bw)


def squash_groups(a, eps: float = 1e-8) -> Tensor:
    """Capsule squash along the last axis: v -> (|v|^2 / (1+|v|^2)) * v / (|v| + eps).

    The backward pass uses the closed form

        d out_j / d v = s * e_j + 2 v_j s'(n) v,
        s'(n) = ((r + eps) - r (1 + n) / 2) / ((1 + n)(r + eps))^2,

    with n = |v|^2 and r = |v|, which is finite at v = 0 (the chain rule
    through a bare sqrt is not).
    """
    a = as_tensor(a)
    n2 = np.sum(a.data * a.data, axis=-1, keepdims=True)
    r = np.sqrt(n2)
    u = (1.0 + n2) * (r + eps)
    s = n2 / u
    out = Tensor(a.data * s, (a,))

    def bw():
        ds = ((r + eps) - 0.5 * r * (1.0 + n2)) / (u * u)
        inner = np.sum(out.grad * a.data, axis=-1, keepdims=True)
        _accum(a, out.grad * s + 2.0 * a.data * ds * inner)

    return _attach(out, bw)


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
        dw = (0.5 * (sgy * var * r * r).sum(axis=-1, keepdims=True)
              - y @ sg.swapaxes(-1, -2)
              - 0.5 * ((y * y) @ sgy.swapaxes(-1, -2)))
        _accum(w, dw / wsum)
        # dh = r (g - u (sg + y sgy)), built in place in one buffer
        dh = y * sgy
        dh += sg
        dh *= w.data / wsum
        dh -= g
        dh *= -r
        _accum(h, dh)

    return _attach(out, bw)


def weighted_mean(attn, values, eps: float) -> Tensor:
    """attn^T values / (sum_x attn + eps), as one node.

    attn: (..., X, K) nonnegative weights; values: (..., X, D); the output
    (..., K, D) holds one weighted mean of the value rows per column of
    attn. With g' = g / den, the backward is dvalues = attn g' and
    dattn = values g'^T - sum_D(g' out).
    """
    attn, values = as_tensor(attn), as_tensor(values)
    den = (np.ones(attn.data.shape[-2], attn.data.dtype) @ attn.data)[..., None] + eps
    out = Tensor((attn.data.swapaxes(-1, -2) @ values.data) / den, (attn, values))

    def bw():
        gs = out.grad / den
        _accum(values, attn.data @ gs)
        _accum(attn, values.data @ gs.swapaxes(-1, -2)
               - np.einsum("...kd,...kd->...k", gs, out.data)[..., None, :])

    return _attach(out, bw)
