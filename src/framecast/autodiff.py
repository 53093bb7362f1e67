"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; backward()
topologically sorts the recorded graph and accumulates chain-rule
contributions into .grad. Tensor data is always float64, the precision
all gradient checks run at.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError

_FINITE_CHECKS = False


def set_finite_checks(enabled: bool) -> None:
    """Debug switch: verify every op output is finite (NaN/Inf hunting)."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


def _unbroadcast(grad, shape):
    # sum gradient contributions back down to the original operand shape
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        if _FINITE_CHECKS and not np.all(np.isfinite(self.data)):
            raise FloatingPointError("non-finite values in tensor")

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    @staticmethod
    def _make(data, parents, backward):
        requires = any(p.requires_grad for p in parents)
        return Tensor(
            data,
            requires_grad=requires,
            _parents=tuple(p for p in parents if p.requires_grad),
            _backward=backward if requires else None,
        )

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
                self.grad += _unbroadcast(g, self.data.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(g, other.data.shape)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self.grad += _unbroadcast(g * other.data, self.data.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(g * self.data, other.data.shape)

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
                self.grad += g * (exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def gelu(self):
        # tanh approximation; smooth everywhere, so finite differences agree
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        inner = c * (x + 0.044715 * x**3)
        t = np.tanh(inner)
        out_data = 0.5 * x * (1.0 + t)

        def backward(g):
            if self.requires_grad:
                d_inner = c * (1.0 + 3 * 0.044715 * x**2)
                self.grad += g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner)

        return Tensor._make(out_data, (self,), backward)

    def clip01(self):
        """Clamp to [0, 1]; the gradient passes through inside the interval."""
        out_data = np.clip(self.data, 0.0, 1.0)

        def backward(g):
            if self.requires_grad:
                inside = (self.data >= 0.0) & (self.data <= 1.0)
                self.grad += g * inside

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
                self.grad += _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.data.shape)
            if other.requires_grad:
                other.grad += _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.data.shape)

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if self.requires_grad:
                if axis is None:
                    self.grad += np.broadcast_to(g, self.data.shape)
                else:
                    g_keep = g if keepdims else np.expand_dims(g, axis)
                    self.grad += np.broadcast_to(g_keep, self.data.shape)

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
                self.grad += g.reshape(old_shape)

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g):
            if self.requires_grad:
                self.grad += g.transpose(inverse)

        return Tensor._make(out_data, (self,), backward)

    def slice_axis(self, axis, start, stop):
        """Contiguous slice along one axis."""
        index = [slice(None)] * self.data.ndim
        index[axis] = slice(start, stop)
        index = tuple(index)
        out_data = self.data[index]

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[index] = g
                self.grad += full

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
                np.add.at(self.grad, indices.reshape(-1), g.reshape(-1, self.data.shape[1]))

        return Tensor._make(out_data, (self,), backward)

    # ---- backward pass ---------------------------------------------------

    def backward(self):
        """Reverse pass from a scalar output; accumulates into .grad."""
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
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


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
    dead = ~np.isfinite(peak)
    if _FINITE_CHECKS and dead.any():
        warnings.warn("softmax over a fully masked slice yields the all-zero sentinel")
    peak = np.where(dead, 0.0, peak)
    e = np.exp(masked - peak)
    denom = e.sum(axis=axis, keepdims=True)
    out_data = np.where(denom > 0, e / np.where(denom > 0, denom, 1.0), 0.0)

    def backward(g):
        if x.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            x.grad += out_data * (g - inner)

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
            logits.grad += grad

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


def parameter(rng, shape, scale=0.02) -> Tensor:
    """Gaussian-initialized trainable tensor."""
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)
