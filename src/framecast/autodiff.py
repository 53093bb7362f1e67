"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray; an op's output also holds a vertex recording the
op's parents, its backward rule and only the arrays that rule reads, so a
forward value no backward reads is freed once the forward code lets go of
it. backward() topologically sorts the vertices and accumulates chain-rule
contributions into .grad. Tensor data is always float64, the precision
all gradient checks run at.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def _operand(other):
    """(data, tensor) for an op's second operand: a Tensor's data and itself,
    or a constant (a Python or numpy number, an ndarray) and None. numpy
    combines a constant as is, with the bytes of its float64 value, and the
    graph never records it.
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

    The first contribution is stored as 0.0 + g in a fresh C-contiguous
    array: 0.0 + g turns -0.0 into +0.0, so the bytes match summing every
    contribution onto zeros.

    When g is owned (nothing else reads it afterwards: a fresh array the
    rule built, or the rule's own gradient or a view of it, handed over)
    and is C-contiguous, g itself becomes node.grad. A gradient never holds
    -0.0, and neither does a sum or a view of one, so a clean g is adopted
    as is; any other owned g has 0.0 + g taken in place.
    """
    if node.grad is not None:
        node.grad += g
        return
    if owned and type(g) is np.ndarray and g.shape == node.shape and g.flags.c_contiguous:
        node.grad = g if clean else np.add(0.0, g, out=g)
    else:
        node.grad = np.add(0.0, g, out=np.empty(node.shape))


class _Vertex:
    """An op's place in the graph: its gradient, its parents' vertices (a
    leaf Tensor is its own vertex), its output's shape and its backward
    rule, called as rule(vertex, g, *saved)."""

    __slots__ = ("grad", "_parents", "shape", "rule", "saved")

    def _backward(self, g):
        self.rule(self, g, *self.saved)


class Tensor:
    """A float64 value. A leaf (a parameter, or a constant) is its own graph
    vertex; an op's output is an _Output, which holds the op's vertex."""

    # __weakref__ lets a check see when a value or a graph has been freed
    __slots__ = ("data", "grad", "requires_grad", "__weakref__")
    # an ndarray on the left defers to __radd__ or __rmul__ (or raises
    # TypeError) instead of mapping the op over its elements
    __array_ufunc__ = None
    _node = None  # the vertex an op records: a leaf's is itself
    _parents, _backward = (), None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def _make(data, parents, rule, *saved):
        """An op's output: an _Output whose vertex records the parents that
        need a gradient, rule and saved, or a constant Tensor if none does.
        Op results are float64 ndarrays already, so they are adopted as they
        are; anything else (a numpy scalar, say) is coerced as __init__ does.
        """
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        live = tuple(p._node or p for p in parents if p is not None and p.requires_grad)
        if not live:
            return Tensor(data)
        node = _Vertex()
        node.grad, node._parents, node.shape, node.rule, node.saved = None, live, data.shape, rule, saved
        out = Tensor.__new__(_Output)
        out.data, out.requires_grad, out._node = data, True, node
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
        other_data, tensor = _operand(other)
        return Tensor._make(self.data + other_data, (self, tensor), Tensor._add_backward)

    @staticmethod
    def _add_backward(node, g):
        # g is handed over to the last parent that takes it whole; a part
        # reduced to a broadcast operand's shape is a fresh sum of it
        first, last = node._parents[0], node._parents[-1]
        theirs = _unbroadcast(g, last.shape)
        if len(node._parents) == 2:
            mine = _unbroadcast(g, first.shape)
            _accumulate(first, mine, owned=mine is not g or theirs is not g, clean=True)
        _accumulate(last, theirs, owned=True, clean=True)

    __radd__ = __add__

    def __mul__(self, other):
        # a, saved for the first parent's gradient, is the other operand's
        # data, b the reverse; None where that operand takes no gradient
        other_data, tensor = _operand(other)
        return Tensor._make(self.data * other_data, (self, tensor), Tensor._mul_backward,
                            other_data if self.requires_grad else None,
                            self.data if tensor is not None and tensor.requires_grad else None)

    @staticmethod
    def _mul_backward(node, g, a, b):
        first, last = node._parents[0], node._parents[-1]
        if a is not None:
            _accumulate(first, _unbroadcast(g * a, first.shape), owned=True)
        if b is not None:
            _accumulate(last, _unbroadcast(g * b, last.shape), owned=True)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        # a constant is negated by numpy, a Tensor by __mul__
        return self + other * -1.0

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return Tensor._make(self.data**exponent, (self,), Tensor._pow_backward, self.data, exponent)

    @staticmethod
    def _pow_backward(node, g, x, exponent):
        _accumulate(node._parents[0], g * (exponent * x ** (exponent - 1)), owned=True)

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
        return Tensor._make(out_data, (self,), Tensor._gelu_backward, x, t)

    @staticmethod
    def _gelu_backward(node, g, x, t):
        # g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner) with d_inner =
        # sqrt(2 / pi) * (1.0 + 3 * 0.044715 * x**2), op by op in two buffers
        a = t * t
        np.subtract(1.0, a, out=a)
        b = x * 0.5
        b *= a
        np.multiply(x, x, out=a)
        a *= 3 * 0.044715
        a += 1.0
        a *= np.sqrt(2.0 / np.pi)
        b *= a
        np.add(1.0, t, out=a)
        a *= 0.5
        a += b
        a *= g
        _accumulate(node._parents[0], a, owned=True)

    def clip01(self):
        """Clamp to [0, 1]; the gradient passes through inside the interval."""
        return Tensor._make(np.clip(self.data, 0.0, 1.0), (self,), Tensor._clip01_backward, self.data)

    @staticmethod
    def _clip01_backward(node, g, x):
        inside = (x >= 0.0) & (x <= 1.0)
        _accumulate(node._parents[0], g * inside, owned=True)

    # ---- linear algebra / shaping ------------------------------------------

    def matmul(self, other):
        # saves a and b as __mul__ does
        other_data, tensor = _operand(other)
        if self.data.ndim < 2 or np.ndim(other_data) < 2:
            raise ValueError("matmul operands must be at least 2D")
        if self.data.shape[-1] != other_data.shape[-2]:
            raise ValueError(
                f"matmul shape mismatch: {self.data.shape} @ {other_data.shape}"
            )
        return Tensor._make(self.data @ other_data, (self, tensor), Tensor._matmul_backward,
                            other_data if self.requires_grad else None,
                            self.data if tensor is not None and tensor.requires_grad else None)

    @staticmethod
    def _matmul_backward(node, g, a, b):
        first, last = node._parents[0], node._parents[-1]
        if a is not None:
            _accumulate(first, _unbroadcast(g @ np.swapaxes(a, -1, -2), first.shape), owned=True)
        if b is not None:
            _accumulate(last, _unbroadcast(np.swapaxes(b, -1, -2) @ g, last.shape), owned=True)

    __matmul__ = matmul

    def sum(self, axis=None, keepdims=False):
        # the rule restores the reduced axis in g, unless g kept its rank
        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                            Tensor._sum_backward, None if keepdims else axis)

    @staticmethod
    def _sum_backward(node, g, axis):
        parent = node._parents[0]
        kept = g if axis is None else np.expand_dims(g, axis)
        _accumulate(parent, np.broadcast_to(kept, parent.shape))

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
        return Tensor._make(self.data.reshape(shape), (self,), Tensor._reshape_backward)

    @staticmethod
    def _reshape_backward(node, g):
        parent = node._parents[0]
        _accumulate(parent, g.reshape(parent.shape), owned=True, clean=True)

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        return Tensor._make(self.data.transpose(axes), (self,), Tensor._transpose_backward, inverse)

    @staticmethod
    def _transpose_backward(node, g, inverse):
        _accumulate(node._parents[0], g.transpose(inverse), owned=True, clean=True)

    def slice_axis(self, axis, start, stop):
        """Contiguous slice along one axis."""
        index = [slice(None)] * self.data.ndim
        index[axis] = slice(start, stop)
        index = tuple(index)
        return Tensor._make(self.data[index], (self,), Tensor._slice_backward, axis, index)

    @staticmethod
    def _slice_backward(node, g, axis, index):
        parent = node._parents[0]
        if parent.grad is None:
            # zeros outside the slice and g (a gradient, so 0.0 + g is g)
            # inside, each element written once
            grad = np.empty(parent.shape)
            lo, hi, _ = index[axis].indices(grad.shape[axis])
            along = np.moveaxis(grad, axis, 0)
            along[:lo] = 0.0
            along[max(lo, hi):] = 0.0
            grad[index] = g
            parent.grad = grad
        else:
            parent.grad[index] += g

    def gather_rows(self, indices):
        """Select rows of a 2D table: result shape indices.shape + (row_dim,)."""
        indices = np.asarray(indices)
        if self.data.ndim != 2:
            raise ValueError("gather_rows expects a 2D table")
        if indices.size and (indices.min() < 0 or indices.max() >= self.data.shape[0]):
            raise IndexError("gather index out of range")
        return Tensor._make(self.data[indices], (self,), Tensor._gather_backward, indices)

    @staticmethod
    def _gather_backward(node, g, indices):
        parent = node._parents[0]
        if parent.grad is None:
            parent.grad = np.zeros(parent.shape)
        np.add.at(parent.grad, indices.reshape(-1), g.reshape(-1, parent.shape[1]))

    # ---- backward pass ---------------------------------------------------

    def backward(self):
        """Reverse pass from a scalar output.

        Gradients are allocated on their first contribution, and an inner
        vertex's gradient is dropped once its rule has passed it on: after
        the pass, leaves and this output hold .grad, inner vertices hold
        None. A rule owns the gradient it is called with, and may hand it
        over to a parent, so this output's rule gets a copy of its ones.
        Vertices keep their saved values, so a graph can run backward again.
        """
        if self.data.size != 1:
            raise ConfigError("backward() must start from a scalar")
        root = self._node or self
        order = []
        visited = set()
        stack = [(root, False)]
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
        root.grad = np.ones_like(self.data)
        if root._backward is not None:
            root._backward(root.grad.copy())
        for node in reversed(order[:-1]):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None


class _Output(Tensor):
    """An op's output: its data, and the vertex holding its gradient."""

    __slots__ = ("_node",)
    grad = property(lambda self: self._node.grad)
    _parents = property(lambda self: self._node._parents)
    _backward = property(lambda self: self._node._backward)


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
    return Tensor._make(out_data, (x,), _softmax_backward, out_data, axis)


def _softmax_backward(node, g, out_data, axis):
    # out_data * (g - (g * out_data).sum()), in one buffer
    grad = g * out_data
    inner = grad.sum(axis=axis, keepdims=True)
    np.subtract(g, inner, out=grad)
    grad *= out_data
    _accumulate(node._parents[0], grad, owned=True)


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
    shape with values in [0, V). One graph vertex, whose backward is
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
    return Tensor._make(rows.sum() * scale, (logits,), _cross_entropy_backward, e, total, picks, scale)


def _cross_entropy_backward(node, g, e, total, picks, scale):
    g_row = g * scale
    grad = e * (g_row / total)
    np.put_along_axis(grad, picks, np.take_along_axis(grad, picks, axis=-1) - g_row, axis=-1)
    _accumulate(node._parents[0], grad, owned=True)


def gradients(loss: Tensor, leaves) -> list[np.ndarray]:
    """Backward from loss, returning one gradient per leaf.

    Leaves with no path to the loss get a zero gradient of their shape.
    """
    loss.backward()
    out = []
    for leaf in leaves:
        out.append(leaf.grad if leaf.grad is not None else np.zeros(leaf.shape))
    return out


def init_params(layout: dict, seed: int) -> dict[str, Tensor]:
    """Trainable tensors for a layout {name: (shape, init(rng, shape))}, drawn
    in layout order from one rng seeded with seed."""
    rng = np.random.default_rng(seed)
    return {
        name: Tensor(init(rng, shape), requires_grad=True) for name, (shape, init) in layout.items()
    }
