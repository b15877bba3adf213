"""Per-block kernels of the squared loss over n contiguous blocks of m rows.

Two ways to evaluate block losses live here.  ``block_stats`` reduces the
partitioned design once to the per-block sufficient statistics

    S_j = X_j^T X_j / m        b_j = X_j^T y_j / m

after which ``block_increment`` compares two coefficient vectors in
O(n d^2), without reading X or y again, and ``block_increments`` does so
for a stack of pairs in one call, each row bitwise the single-pair kernel.
The adversary ascent of ``objective.phi_lambda_hat`` takes the stacked
call once per iteration; the descent-ascent loop of the fit goes row by
row through ``block_increment`` (``solver._descent_ascent`` says why),
writing each row, bitwise, into that loop's (R, n) buffer through ``out=``.
``block_losses`` is the exact residual path: it reads X and y, O(n m d)
per theta, and is the reference the statistics path is tested against.

The witness-pool audit of ``solver.mom_minimax_fit`` and the grid oracle
``solver.oracle_grid_fit`` score hundreds of thetas by differences of
block losses, in which the per-block constant cancels.  Both take their
losses from ``solver._audit_losses``, which picks the cheaper form: the
statistics where d <= m, the residuals where d > m, as n d^2 against
n m d operations per theta says.  From the statistics, the block losses of
theta less each block's y_j^T y_j / m are its ``block_increments`` against
the zero predictor, theta^T S_j theta - 2 b_j^T theta.
"""
from __future__ import annotations

import numpy as np

# Thetas per residual matrix in block_losses: bounds the (chunk, n*m)
# temporary, and so peak memory, for large batches.  It is a row count, not
# the entry budget of ``blocks.row_slices``, because a matrix product
# rounds some rows differently with the number of rows it is given: at
# N=330, d=24 and 700 thetas, chunks of 2 to 700 rows changed 60 to 1,000
# of the 231,000 residuals of 64-row chunks (one BLAS thread, numpy 2.4),
# and the fits and the audit depend on these bits.
_CHUNK = 64


def block_stats(X, y, n, m):
    """Per-block (S, b): S has shape (n, d, d) and b shape (n, d)."""
    Xb = X.reshape(n, m, -1)
    Xt = Xb.transpose(0, 2, 1)
    S = (Xt @ Xb) / m
    b = (Xt @ y.reshape(n, m, 1))[..., 0] / m
    return S, b


def block_increment(S, b, theta_f, theta_h, out=None):
    """Per-block squared-loss difference of theta_f and theta_h from (S, b),
    written into out, an (n,) array, when given.

    Evaluated as (S_j (f - h)) . (f + h) - 2 b_j . (f - h): the y^T y / m
    term of each block loss never forms, so nothing cancels against a large
    response norm, and f == h gives exactly 0.
    """
    delta = theta_f - theta_h
    # One (n*d, d) matrix-vector product is faster than n batched (d, d) ones.
    s_delta = (S.reshape(-1, delta.shape[0]) @ delta).reshape(b.shape)
    inc = np.matmul(s_delta, theta_f + theta_h, out=out)
    inc -= 2.0 * (b @ delta)
    return inc


def block_increments(S, b, theta_f, thetas_h):
    """Row k: ``block_increment(S, b, f_k, h_k)``, bitwise, for theta_f and
    thetas_h that broadcast to (R, d) stacks f and h; shape (R, n).

    Each product is the single-pair kernel's matrix-vector product, stacked
    over the rows by matmul, so every row rounds as that kernel's does.
    """
    delta = theta_f - thetas_h
    R, d = delta.shape
    s_delta = np.matmul(S.reshape(-1, d), delta[:, :, None]).reshape(R, *b.shape)
    inc = np.matmul(s_delta, (theta_f + thetas_h)[:, :, None])
    inc -= 2.0 * np.matmul(b, delta[:, :, None])
    return inc[:, :, 0]


def block_means(v, n, m):
    """Means of the n consecutive blocks of m entries along the last axis of
    v, bitwise ``ndarray.mean`` without its Python wrapper (see ``blocks``)."""
    return np.add.reduce(v.reshape(*v.shape[:-1], n, m), axis=-1) / m


def block_losses(X, y, thetas, n, m):
    """Per-block mean of (X theta - y)^2 for each row of a (k, d) batch of
    thetas: shape (k, n)."""
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.empty((thetas.shape[0], n))
    for lo in range(0, thetas.shape[0], _CHUNK):
        chunk = thetas[lo : lo + _CHUNK]
        resid = chunk @ X.T
        resid -= y
        # Residuals are squared in the buffer of the product they come from.
        out[lo : lo + chunk.shape[0]] = block_means(np.square(resid, out=resid), n, m)
    return out
