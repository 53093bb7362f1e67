"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; backward()
topologically sorts the recorded graph and accumulates chain-rule
contributions into .grad. Tensor data is always float64, the precision
all gradient checks run at.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def _unbroadcast(grad, shape):
    # sum gradient contributions back down to the original operand shape
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accumulate(node, g, owned=False):
    """Add one chain-rule contribution to node.grad, allocating it on the first.

    The first contribution is stored as 0.0 + g in an array laid out like
    node.data: a transposed view g would otherwise change the order of
    later reductions, and 0.0 + g turns -0.0 into +0.0, so the bytes match
    summing every contribution onto zeros. When g is owned (a fresh array
    the closure built and nothing else holds) and is C-contiguous like the
    data, 0.0 + g is taken in place on g instead of on a copy.
    """
    if node.grad is None:
        data = node.data
        if (owned and type(g) is np.ndarray and g.shape == data.shape
                and g.flags.c_contiguous and data.flags.c_contiguous):
            node.grad = np.add(0.0, g, out=g)
        else:
            node.grad = np.add(0.0, g, out=np.empty_like(data))
    else:
        node.grad += g


class Tensor:
    # __weakref__ lets a check see when a graph has been freed
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    @staticmethod
    def _make(data, parents, backward):
        """An op's output node; it records only the parents that need a gradient.

        Op results are float64 ndarrays already, so they are adopted as they
        are; anything else (a numpy scalar, say) is coerced as __init__ does.
        """
        out = Tensor.__new__(Tensor)
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        live = tuple(p for p in parents if p.requires_grad)
        out.data = data
        out.grad = None
        out.requires_grad = bool(live)
        out._parents = live
        out._backward = backward if live else None
        return out

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g, self.data.shape))
            if other.requires_grad:
                _accumulate(other, _unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g * other.data, self.data.shape), owned=True)
            if other.requires_grad:
                _accumulate(other, _unbroadcast(g * self.data, other.data.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        other = Tensor._lift(other)
        return self + (-other)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g):
            if self.requires_grad:
                _accumulate(self, g * (exponent * self.data ** (exponent - 1)), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def gelu(self):
        # tanh approximation; smooth everywhere, so finite differences agree
        # c * (x + 0.044715 * (x * x * x)), then tanh, all in one buffer t;
        # out is 0.5 * x * (1.0 + t), the same ops in the same order
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        t = x * x
        t *= x
        t *= 0.044715
        np.add(x, t, out=t)
        t *= c
        np.tanh(t, out=t)
        out_data = 0.5 * x
        out_data *= 1.0 + t

        def backward(g):
            if self.requires_grad:
                d_inner = c * (1.0 + 3 * 0.044715 * x**2)
                _accumulate(
                    self, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner), owned=True
                )

        return Tensor._make(out_data, (self,), backward)

    def clip01(self):
        """Clamp to [0, 1]; the gradient passes through inside the interval."""
        out_data = np.clip(self.data, 0.0, 1.0)

        def backward(g):
            if self.requires_grad:
                inside = (self.data >= 0.0) & (self.data <= 1.0)
                _accumulate(self, g * inside, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ---- linear algebra / shaping ------------------------------------------

    def matmul(self, other):
        other = Tensor._lift(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2D")
        if self.data.shape[-1] != other.data.shape[-2]:
            raise ValueError(
                f"matmul shape mismatch: {self.data.shape} @ {other.data.shape}"
            )
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                _accumulate(
                    self, _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.data.shape), owned=True
                )
            if other.requires_grad:
                _accumulate(
                    other, _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.data.shape), owned=True
                )

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if self.requires_grad:
                if axis is None:
                    _accumulate(self, np.broadcast_to(g, self.data.shape))
                else:
                    g_keep = g if keepdims else np.expand_dims(g, axis)
                    _accumulate(self, np.broadcast_to(g_keep, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        old_shape = self.data.shape

        def backward(g):
            if self.requires_grad:
                _accumulate(self, g.reshape(old_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g):
            if self.requires_grad:
                _accumulate(self, g.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def slice_axis(self, axis, start, stop):
        """Contiguous slice along one axis."""
        index = [slice(None)] * self.data.ndim
        index[axis] = slice(start, stop)
        index = tuple(index)
        out_data = self.data[index]

        def backward(g):
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[index] += g

        return Tensor._make(out_data, (self,), backward)

    def gather_rows(self, indices):
        """Select rows of a 2D table: result shape indices.shape + (row_dim,)."""
        indices = np.asarray(indices)
        if self.data.ndim != 2:
            raise ValueError("gather_rows expects a 2D table")
        if indices.size and (indices.min() < 0 or indices.max() >= self.data.shape[0]):
            raise IndexError("gather index out of range")
        out_data = self.data[indices]

        def backward(g):
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                np.add.at(self.grad, indices.reshape(-1), g.reshape(-1, self.data.shape[1]))

        return Tensor._make(out_data, (self,), backward)

    # ---- backward pass ---------------------------------------------------

    def backward(self):
        """Reverse pass from a scalar output.

        Gradients are allocated on their first contribution, and an inner
        node's gradient is dropped once its closure has passed it on: after
        the pass, leaves and this output hold .grad, inner nodes hold None.
        """
        if self.data.size != 1:
            raise ConfigError("backward() must start from a scalar")
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None


def softmax(x: Tensor, mask=None, axis: int = -1) -> Tensor:
    """Numerically stable softmax; masked positions come out exactly 0.

    mask is a boolean array broadcastable to x (True = position allowed).
    A fully masked slice yields all zeros, the documented sentinel.
    """
    data = x.data
    if mask is None:
        allowed = np.ones_like(data, dtype=bool)
    else:
        allowed = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
    masked = np.where(allowed, data, -np.inf)
    peak = masked.max(axis=axis, keepdims=True)
    live = np.isfinite(peak)
    if live.all():
        # every slice has a finite peak, so its exp sum is at least 1 and the
        # general path below reduces to e / denom, done in place on e. (Doing
        # the shift and exp in place too cost more minor page faults than it
        # saved under glibc's default allocator settings.)
        out_data = np.exp(masked - peak)
        out_data /= out_data.sum(axis=axis, keepdims=True)
    else:
        e = np.exp(masked - np.where(live, peak, 0.0))
        denom = e.sum(axis=axis, keepdims=True)
        out_data = np.where(denom > 0, e / np.where(denom > 0, denom, 1.0), 0.0)

    def backward(g):
        if x.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            _accumulate(x, out_data * (g - inner), owned=True)

    return Tensor._make(out_data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then affine."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * gain + bias


def cross_entropy_logits(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    logits has shape (..., V); targets is an integer array of the leading
    shape with values in [0, V). One tape node, whose backward is
    (softmax - one-hot) / rows with the one-hot applied in place.
    """
    data = logits.data
    targets = np.asarray(targets)
    if targets.shape != data.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} does not match logits {data.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= data.shape[-1]):
        raise IndexError("target index out of range")
    picks = targets[..., None]
    # the max shift keeps exp() in range without touching the gradient
    shift = data.max(axis=-1, keepdims=True)
    e = np.exp(data - shift)
    total = e.sum(axis=-1, keepdims=True)
    rows = np.log(total) + shift - np.take_along_axis(data, picks, axis=-1)
    scale = 1.0 / rows.size

    def backward(g):
        if logits.requires_grad:
            g_row = g * scale
            grad = e * (g_row / total)
            np.put_along_axis(grad, picks, np.take_along_axis(grad, picks, axis=-1) - g_row, axis=-1)
            _accumulate(logits, grad, owned=True)

    return Tensor._make(rows.sum() * scale, (logits,), backward)


def gradients(loss: Tensor, leaves) -> list[np.ndarray]:
    """Backward from loss, returning one gradient per leaf.

    Leaves with no path to the loss get a zero gradient of their shape.
    """
    loss.backward()
    out = []
    for leaf in leaves:
        out.append(leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
    return out


def init_params(layout: dict, seed: int) -> dict[str, Tensor]:
    """Trainable tensors for a layout {name: (shape, init(rng, shape))}, drawn
    in layout order from one rng seeded with seed."""
    rng = np.random.default_rng(seed)
    return {
        name: Tensor(init(rng, shape), requires_grad=True) for name, (shape, init) in layout.items()
    }
