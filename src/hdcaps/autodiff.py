"""Minimal reverse-mode automatic differentiation over numpy arrays.

Every value is float64. A :class:`Tensor` wraps an ndarray plus the
backward closure that scatters its gradient into its parents; calling
:func:`backward` on a scalar loss walks the graph once in reverse
topological order. The op set is just large enough for the models in
this package (broadcast arithmetic, batched matmul, softmax, reductions,
shape ops, and the capsule squash nonlinearity, which gets a hand-derived
backward so it stays finite at the zero vector).
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
]


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward_fn

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
    return x if isinstance(x, Tensor) else Tensor(x)


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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))

    def bw():
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape))

    out._backward = bw
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, (a, b))

    def bw():
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(-out.grad, b.data.shape))

    out._backward = bw
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))

    def bw():
        _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    out._backward = bw
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data, (a, b))

    def bw():
        _accum(a, _unbroadcast(out.grad / b.data, a.data.shape))
        _accum(b, _unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))

    out._backward = bw
    return out


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch broadcasting; operands must be >= 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    out = Tensor(a.data @ b.data, (a, b))

    def bw():
        _accum(a, _unbroadcast(out.grad @ b.data.swapaxes(-1, -2), a.data.shape))
        _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ out.grad, b.data.shape))

    out._backward = bw
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), (a,))

    def bw():
        _accum(a, out.grad * (a.data > 0.0))

    out._backward = bw
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data), (a,))

    def bw():
        _accum(a, out.grad * out.data)

    out._backward = bw
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data), (a,))

    def bw():
        _accum(a, out.grad / a.data)

    out._backward = bw
    return out


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.sqrt(a.data), (a,))

    def bw():
        _accum(a, out.grad * 0.5 / out.data)

    out._backward = bw
    return out


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, (a,))

    def bw():
        g = out.grad
        _accum(a, (g - (g * y).sum(axis=axis, keepdims=True)) * y)

    out._backward = bw
    return out


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def bw():
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    out._backward = bw
    return out


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

    out._backward = bw
    return out


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.swapaxes(ax1, ax2), (a,))

    def bw():
        _accum(a, out.grad.swapaxes(ax1, ax2))

    out._backward = bw
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw():
        for t, g in zip(tensors, np.split(out.grad, splits, axis=axis)):
            _accum(t, g)

    out._backward = bw
    return out


def clip_min(a, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes only where a was above the floor."""
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, lo), (a,))

    def bw():
        _accum(a, out.grad * (a.data > lo))

    out._backward = bw
    return out


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

    out._backward = bw
    return out
