"""Shared test oracles, kept independent of the code paths they check."""

import numpy as np


def central_difference(f, x, h=1e-5):
    """Gradient of scalar f at x by central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f(x)
        flat[i] = orig - h
        f_minus = f(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric):
    """max_i |a_i - n_i| / max(1, |a_i|, |n_i|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def scan_nearest_code_indices(vectors, entries):
    """Nearest codebook row per vector by the explicit (M, K, D) scan.

    The reference rule for ``tokenizer.nearest_code_indices``: squared
    differences summed over the last axis, argmin with ties (and NaN) going
    to the lowest index.
    """
    with np.errstate(all="ignore"):
        diff = vectors[:, None, :] - entries[None, :, :]
        d2 = (diff * diff).sum(axis=-1)
    return d2.argmin(axis=1).astype(np.int32)


def eager_backward(loss):
    """Reference reverse pass with every gradient allocated up front.

    Zero-fills a C-contiguous gradient for every vertex that reaches loss's
    (a leaf's vertex is the leaf), seeds loss's vertex with ones and runs
    each vertex's rule in reverse topological order; every vertex keeps its
    gradient. The rule ``Tensor.backward`` must match to the byte on the
    leaves.
    """
    root = loss._node or loss
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents)
    for node in order:
        node.grad = np.zeros(node.shape)
    root.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
    return order


def assert_backward_matches_eager(loss, leaves):
    """Leaf gradients of ``loss.backward()`` equal ``eager_backward``'s, byte for byte."""
    eager_backward(loss)
    expected = [leaf.grad.copy() for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    loss.backward()
    for leaf, want in zip(leaves, expected):
        assert leaf.grad.dtype == want.dtype and leaf.grad.shape == want.shape
        assert leaf.grad.tobytes() == want.tobytes()


def softmax_reference(data, mask, axis=-1):
    """The general masked softmax rule, for any mask.

    Masked positions read -inf; a slice with no finite peak is shifted by 0
    and a slice whose exp sum is 0 comes out all zeros. ``autodiff.softmax``
    must match it to the byte, on its fast path as on its general one.
    """
    allowed = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
    masked = np.where(allowed, data, -np.inf)
    peak = masked.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    e = np.exp(masked - peak)
    denom = e.sum(axis=axis, keepdims=True)
    return np.where(denom > 0, e / np.where(denom > 0, denom, 1.0), 0.0)
