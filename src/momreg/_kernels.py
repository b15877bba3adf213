"""Per-block kernels of the squared loss over n contiguous blocks of m rows.

Two ways to evaluate block losses live here.  ``block_stats`` reduces the
partitioned design once to the per-block sufficient statistics

    S_j = X_j^T X_j / m        b_j = X_j^T y_j / m

after which ``block_increment`` compares two coefficient vectors in
O(n d^2), without reading X or y again; the descent-ascent loops run on
these.  ``block_losses`` is the exact residual path: it reads X and y,
takes one theta or a (k, d) batch, and is the reference the statistics
path is tested against.
"""
from __future__ import annotations

import numpy as np

# Thetas per residual matrix in block_losses: bounds the (chunk, n*m)
# temporary, and so peak memory, for large batches.
_CHUNK = 64


def block_stats(X, y, n, m):
    """Per-block (S, b): S has shape (n, d, d) and b shape (n, d)."""
    Xb = X.reshape(n, m, -1)
    Xt = Xb.transpose(0, 2, 1)
    S = (Xt @ Xb) / m
    b = (Xt @ y.reshape(n, m, 1))[..., 0] / m
    return S, b


def block_increment(S, b, theta_f, theta_h):
    """Per-block squared-loss difference of theta_f and theta_h from (S, b).

    Evaluated as (S_j (f - h)) . (f + h) - 2 b_j . (f - h): the y^T y / m
    term of each block loss never forms, so nothing cancels against a large
    response norm, and f == h gives exactly 0.
    """
    delta = theta_f - theta_h
    # One (n*d, d) matrix-vector product is faster than n batched (d, d) ones.
    s_delta = (S.reshape(-1, delta.shape[0]) @ delta).reshape(b.shape)
    return s_delta @ (theta_f + theta_h) - 2.0 * (b @ delta)


def block_losses(X, y, thetas, n, m):
    """Per-block mean of (X theta - y)^2: shape (n,) for one theta, (k, n)
    for a (k, d) batch of thetas."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim == 1:
        return np.square(X @ thetas - y).reshape(n, m).mean(axis=1)
    out = np.empty((thetas.shape[0], n))
    for lo in range(0, thetas.shape[0], _CHUNK):
        chunk = thetas[lo : lo + _CHUNK]
        resid = chunk @ X.T - y
        out[lo : lo + chunk.shape[0]] = np.square(resid).reshape(-1, n, m).mean(axis=2)
    return out
