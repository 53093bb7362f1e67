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
