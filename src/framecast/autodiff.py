"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray and records the op that produced it; backward()
topologically sorts the recorded graph and accumulates chain-rule
contributions into .grad. Tensor data is always float64, the precision
all gradient checks run at.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def _operand(other):
    """(data, node) for an op's second operand: a Tensor's data and itself, or
    a constant (a Python or numpy number, an ndarray) and None. numpy combines
    a constant as is, with the bytes of its float64 value, and the tape never
    records it. Backward closures call this again rather than capture both
    results: a default-config pass's tape sits just under the collector's
    700-object threshold, and one more captured cell per op crosses it.
    """
    if isinstance(other, Tensor):
        return other.data, other
    return other, None


def _unbroadcast(grad, shape):
    # sum gradient contributions back down to the original operand shape
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accumulate(node, g, owned=False, clean=False):
    """Add one chain-rule contribution to node.grad, allocating it on the first.

    The first contribution is stored as 0.0 + g in an array laid out like
    node.data (as np.empty_like lays it out): a transposed view g would
    otherwise change the order of later reductions, and 0.0 + g turns -0.0
    into +0.0, so the bytes match summing every contribution onto zeros.

    When g is owned (nothing else reads it afterwards: a fresh array the
    closure built, or the closure's own gradient or a view of it, handed
    over) and is C-contiguous where the data's layout is too, g itself
    becomes node.grad. A gradient never holds -0.0, and neither does a sum
    or a view of one, so a clean g is adopted as is; any other owned g has
    0.0 + g taken in place.
    """
    if node.grad is not None:
        node.grad += g
        return
    data = node.data
    # the layout np.empty_like gives a non-contiguous data (C order for a
    # strided slice, say); None where data is C-contiguous itself
    like = None if data.flags.c_contiguous else np.empty_like(data)
    if (owned and type(g) is np.ndarray and g.shape == data.shape and g.flags.c_contiguous
            and (like is None or like.flags.c_contiguous)):
        node.grad = g if clean else np.add(0.0, g, out=g)
    else:
        node.grad = np.add(0.0, g, out=np.empty_like(data) if like is None else like)


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
    def _make(data, parents, backward):
        """An op's output node; it records only the parents that need a gradient.

        Op results are float64 ndarrays already, so they are adopted as they
        are; anything else (a numpy scalar, say) is coerced as __init__ does.
        """
        out = Tensor.__new__(Tensor)
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        live = tuple(p for p in parents if p is not None and p.requires_grad)
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
        other_data, node = _operand(other)

        def backward(g):
            node = _operand(other)[1]
            # g is handed over to the last parent that takes it whole; a part
            # reduced to a broadcast operand's shape is a fresh sum of it
            mine = _unbroadcast(g, self.data.shape) if self.requires_grad else None
            theirs = (_unbroadcast(g, node.data.shape)
                      if node is not None and node.requires_grad else None)
            if mine is not None:
                _accumulate(self, mine, owned=mine is not g or theirs is not g, clean=True)
            if theirs is not None:
                _accumulate(node, theirs, owned=True, clean=True)

        return Tensor._make(self.data + other_data, (self, node), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other_data, node = _operand(other)

        def backward(g):
            other_data, node = _operand(other)
            if self.requires_grad:
                _accumulate(self, _unbroadcast(g * other_data, self.data.shape), owned=True)
            if node is not None and node.requires_grad:
                _accumulate(node, _unbroadcast(g * self.data, other_data.shape), owned=True)

        return Tensor._make(self.data * other_data, (self, node), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        # a constant is negated by numpy, a Tensor by __mul__
        return self + other * -1.0

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g):
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
            # g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner) with
            # d_inner = c * (1.0 + 3 * 0.044715 * x**2), op by op in two buffers
            a = t * t
            np.subtract(1.0, a, out=a)
            b = x * 0.5
            b *= a
            np.multiply(x, x, out=a)
            a *= 3 * 0.044715
            a += 1.0
            a *= c
            b *= a
            np.add(1.0, t, out=a)
            a *= 0.5
            a += b
            a *= g
            _accumulate(self, a, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def clip01(self):
        """Clamp to [0, 1]; the gradient passes through inside the interval."""
        out_data = np.clip(self.data, 0.0, 1.0)

        def backward(g):
            inside = (self.data >= 0.0) & (self.data <= 1.0)
            _accumulate(self, g * inside, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ---- linear algebra / shaping ------------------------------------------

    def matmul(self, other):
        other_data, node = _operand(other)
        if self.data.ndim < 2 or np.ndim(other_data) < 2:
            raise ValueError("matmul operands must be at least 2D")
        if self.data.shape[-1] != other_data.shape[-2]:
            raise ValueError(
                f"matmul shape mismatch: {self.data.shape} @ {other_data.shape}"
            )

        def backward(g):
            other_data, node = _operand(other)
            if self.requires_grad:
                _accumulate(
                    self, _unbroadcast(g @ np.swapaxes(other_data, -1, -2), self.data.shape), owned=True
                )
            if node is not None and node.requires_grad:
                _accumulate(
                    node, _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other_data.shape), owned=True
                )

        return Tensor._make(self.data @ other_data, (self, node), backward)

    __matmul__ = matmul

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            kept = g if axis is None or keepdims else np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(kept, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = math.prod(self.data.shape[a] for a in axis)
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        old_shape = self.data.shape

        def backward(g):
            _accumulate(self, g.reshape(old_shape), owned=True, clean=True)

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g):
            _accumulate(self, g.transpose(inverse), owned=True, clean=True)

        return Tensor._make(out_data, (self,), backward)

    def slice_axis(self, axis, start, stop):
        """Contiguous slice along one axis."""
        index = [slice(None)] * self.data.ndim
        index[axis] = slice(start, stop)
        index = tuple(index)
        out_data = self.data[index]

        def backward(g):
            if self.grad is None:
                # zeros outside the slice and g (a gradient, so 0.0 + g is g)
                # inside, each element written once
                grad = np.empty_like(self.data)
                lo, hi, _ = index[axis].indices(grad.shape[axis])
                along = np.moveaxis(grad, axis, 0)
                along[:lo] = 0.0
                along[max(lo, hi):] = 0.0
                grad[index] = g
                self.grad = grad
            else:
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
        A closure owns the gradient it is called with, and may hand it over
        to a parent, so this output's closure gets a copy of its ones.
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
        if self._backward is not None:
            self._backward(self.grad.copy())
        for node in reversed(order[:-1]):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None


def softmax(x: Tensor, mask=None, axis: int = -1) -> Tensor:
    """Numerically stable softmax; masked positions come out exactly 0.

    mask is a boolean array broadcastable to x (True = position allowed).
    A fully masked slice yields all zeros, the documented sentinel.
    """
    data = x.data
    allowed = True if mask is None else np.asarray(mask, dtype=bool)
    peak = data.max(axis=axis, keepdims=True, where=allowed, initial=-np.inf)
    if np.isfinite(peak).all():
        # every slice has a finite peak, so its exp sum is at least 1 and the
        # general rule reduces to e / denom. Only allowed entries are shifted
        # and exponentiated, into zeros: a masked score never reaches exp,
        # which also skips exp's slow path on -inf.
        out_data = np.zeros_like(data)
        np.subtract(data, peak, out=out_data, where=allowed)
        np.exp(out_data, out=out_data, where=allowed)
        out_data /= out_data.sum(axis=axis, keepdims=True)
    else:
        masked = np.where(allowed, data, -np.inf)
        e = np.exp(masked - np.where(np.isfinite(peak), peak, 0.0))
        denom = e.sum(axis=axis, keepdims=True)
        out_data = np.where(denom > 0, e / np.where(denom > 0, denom, 1.0), 0.0)

    def backward(g):
        # out_data * (g - (g * out_data).sum()), in one buffer
        grad = g * out_data
        inner = grad.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=grad)
        grad *= out_data
        _accumulate(x, grad, owned=True)

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
    e = data - shift
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    rows = np.log(total) + shift - np.take_along_axis(data, picks, axis=-1)
    scale = 1.0 / rows.size

    def backward(g):
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
