"""Per-block statistics: quadratic and multiplier components, increments,
medians, and majority counting, plus the median and the temporary budget
that the package's per-block computations share.

``middle(a)`` is the one median-of-means median: the middle order statistic
along the odd last axis of ``a``, found by partitioning ``a`` in place (a
caller that must keep its input passes a copy).  ``row_slices(k,
row_entries)`` is the temporary budget of the stacked statistics here and
of the solver's audit: slices of a k-row stack such that no slice's
temporary, row_entries entries per row, exceeds ``TEMP_ENTRIES`` (65,536)
entries, with at least one row per slice.  ``_kernels.block_losses`` keeps
its own 64-row ``_CHUNK`` instead, because a matrix product rounds some
rows differently with the number of rows it is given, and the fits depend
on those bits.  ``block_means(v, n, m)``, from ``_kernels``, is the one
block mean: it calls ``np.add.reduce`` and divides by m, which is what
``ndarray.mean`` computes, so it gives that method's bits without its
Python-level wrapper.

For predictors f, h and block j the three statistics are

    quad(j)      = mean over block of (f - h)^2 (X_i)          (always >= 0)
    multiplier(j)= mean over block of 2 (f - h)(X_i) (h(X_i) - Y_i)
    increment(j) = mean block loss of f - mean block loss of h

and increment = quad + multiplier holds entrywise up to roundoff.  All
three are computed from the residuals over the rows of X, the exact path
that the verifiers rely on; the solver's faster path through per-block
statistics lives in ``_kernels``.

``block_increments`` and ``multiplier_components`` take a whole (k, d)
stack of thetas against one h and return (k, n) arrays from one stacked
residual pass, ``_residual_pass``, which ``verify`` calls for both at once:
``np.matmul(X, thetas[:, :, None])`` runs one matrix-vector product per
theta, so every row is bitwise the single-theta ``X @ theta`` and every
(k, n) row equals the one-theta statistic.  ``block_increment`` and
``multiplier_component`` are their one-row cases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import block_means
from .errors import DimensionError, InvalidInput, OddLengthRequired
from .model import BlockPartition, Dataset, LinearPredictor, _frozen_array, covered_rows


@dataclass(frozen=True)
class BlockVector:
    """One statistic per block, in block order."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.values)
        if v.ndim != 1:
            raise DimensionError("block vector must be 1-d")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("block statistics must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


# Largest temporary, in entries, of one slice of a stacked pass: the
# residuals of the stacked statistics here and the (candidates, pool,
# blocks) differences of the solver's witness-pool audit.
TEMP_ENTRIES = 65536


def row_slices(k: int, row_entries: int):
    """Slices of range(k), in order, of at most max(1, TEMP_ENTRIES //
    row_entries) rows each."""
    rows = max(1, TEMP_ENTRIES // row_entries)
    return (slice(lo, lo + rows) for lo in range(0, k, rows))


def middle(a: np.ndarray) -> np.ndarray:
    """The middle order statistic along the odd last axis of a, which is
    partitioned in place; shape a.shape[:-1]."""
    mid = a.shape[-1] // 2
    a.partition(mid, axis=-1)
    return a[..., mid]


def _used_arrays(f_dim: int, h: LinearPredictor, data: Dataset, p: BlockPartition):
    if f_dim != h.dim:
        raise DimensionError(f"predictor dims differ: {f_dim} vs {h.dim}")
    if f_dim != data.dim:
        raise DimensionError(f"predictor dim {f_dim} vs data dim {data.dim}")
    return covered_rows(data, p)


def quad_component(
    f: LinearPredictor, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> BlockVector:
    """Blockwise mean of (f - h)^2 (X_i)."""
    X, _ = _used_arrays(f.dim, h, data, p)
    return BlockVector(block_means(np.square(X @ (f.theta - h.theta)), p.n, p.m))


def _stacked_arrays(thetas, h: LinearPredictor, data: Dataset, p: BlockPartition):
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    if thetas.ndim != 2:
        raise DimensionError("thetas must be a (k, d) stack of coefficient vectors")
    return (thetas, *_used_arrays(thetas.shape[1], h, data, p))


def _stacked_products(X, thetas) -> np.ndarray:
    # One matrix-vector product per theta: each row is bitwise X @ theta.
    return np.matmul(X, thetas[:, :, None])[:, :, 0]


def _residual_pass(X, y, h_theta, inc_thetas, mult_thetas, n: int, m: int):
    """Block increments against h of the rows of inc_thetas and multipliers
    of the rows of mult_thetas, (k, n) and (l, n), from one stacked residual
    pass over the covered rows X, y of [inc_thetas, h, mult_thetas - h]:
    h's residual comes from its own row.  Only the output is checked."""
    k = inc_thetas.shape[0]
    stack = np.concatenate([inc_thetas, h_theta[None], mult_thetas - h_theta])
    stats = np.empty((stack.shape[0], n))
    for rows in row_slices(stack.shape[0], n * m):
        z = _stacked_products(X, stack[rows])
        mid = min(max(k + 1 - rows.start, 0), z.shape[0])  # the first multiplier row
        z[:mid] -= y
        if rows.start <= k < rows.stop:
            resid_h = z[k - rows.start].copy()
        np.square(z[:mid], out=z[:mid])
        if mid < z.shape[0]:
            z[mid:] *= resid_h
        stats[rows] = block_means(z, n, m)
        stats[rows.start + mid : rows.stop] *= 2.0
    stats[:k] -= stats[k]
    if not (np.isfinite(stats[:k]).all() and np.isfinite(stats[k + 1 :]).all()):
        raise InvalidInput("block statistics must be finite")
    return stats[:k], stats[k + 1 :]


def block_increments(thetas, h: LinearPredictor, data: Dataset, p: BlockPartition) -> np.ndarray:
    """Blockwise squared-loss difference of each row of a (k, d) stack of
    thetas and h, from the losses of ``_residual_pass``: shape (k, n)."""
    thetas, X, y = _stacked_arrays(thetas, h, data, p)
    return _residual_pass(X, y, h.theta, thetas, thetas[:0], p.n, p.m)[0]


def multiplier_components(
    thetas, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> np.ndarray:
    """Blockwise mean of 2 (theta - h)(X_i) (h(X_i) - Y_i) for each row of a
    (k, d) stack of thetas, from ``_residual_pass``: shape (k, n)."""
    thetas, X, y = _stacked_arrays(thetas, h, data, p)
    return _residual_pass(X, y, h.theta, thetas[:0], thetas, p.n, p.m)[1]


def multiplier_component(
    f: LinearPredictor, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> BlockVector:
    """Blockwise mean of 2 (f - h)(X_i) (h(X_i) - Y_i): the noise-interaction term."""
    return BlockVector(multiplier_components(f.theta[None, :], h, data, p)[0])


def block_increment(
    f: LinearPredictor, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> BlockVector:
    """Blockwise squared-loss difference of f and h, from the losses directly."""
    return BlockVector(block_increments(f.theta[None, :], h, data, p)[0])


def _as_values(v) -> np.ndarray:
    if isinstance(v, BlockVector):
        return v.values
    return np.asarray(v, dtype=np.float64)


def median(v) -> float:
    """The unique middle order statistic of an odd-length vector."""
    vals = _as_values(v)
    if vals.shape[0] % 2 == 0:
        raise OddLengthRequired(f"median needs odd length, got {vals.shape[0]}")
    return float(middle(vals.copy()))


def count_blocks_satisfying(v, threshold: float, direction: str = "ge") -> int:
    """Number of entries with value >= threshold ('ge') or <= threshold ('le')."""
    vals = _as_values(v)
    if direction == "ge":
        return int(np.count_nonzero(vals >= threshold))
    if direction == "le":
        return int(np.count_nonzero(vals <= threshold))
    raise InvalidInput(f"direction must be 'ge' or 'le', got {direction!r}")
