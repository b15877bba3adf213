"""Per-block statistics: quadratic and multiplier components, increments,
medians, and majority counting.

For predictors f, h and block j the three statistics are

    quad(j)      = mean over block of (f - h)^2 (X_i)          (always >= 0)
    multiplier(j)= mean over block of 2 (f - h)(X_i) (h(X_i) - Y_i)
    increment(j) = mean block loss of f - mean block loss of h

and increment = quad + multiplier holds entrywise up to roundoff.  All
three are computed from the residuals over the rows of X, the exact path
that the verifiers rely on; the solver's faster path through per-block
statistics lives in ``_kernels``.

``block_increments`` and ``multiplier_components`` take a whole (k, d)
stack of thetas against one h and return (k, n) arrays, from one stacked
residual pass: ``np.matmul(X, thetas[:, :, None])`` runs one matrix-vector
product per theta, so every row is bitwise the single-theta ``X @ theta``
and every (k, n) row equals the one-theta statistic.  ``block_increment``
and ``multiplier_component`` are their one-row cases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
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


# Largest (thetas, samples) temporary of one stacked residual pass.
_STACK_ENTRIES = 65536


def _used_arrays(f_dim: int, h: LinearPredictor, data: Dataset, p: BlockPartition):
    if f_dim != h.dim:
        raise DimensionError(f"predictor dims differ: {f_dim} vs {h.dim}")
    if f_dim != data.dim:
        raise DimensionError(f"predictor dim {f_dim} vs data dim {data.dim}")
    return covered_rows(data, p)


def _block_means(v: np.ndarray, p: BlockPartition) -> np.ndarray:
    return v.reshape(p.n, p.m).mean(axis=1)


def quad_component(
    f: LinearPredictor, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> BlockVector:
    """Blockwise mean of (f - h)^2 (X_i)."""
    X, _ = _used_arrays(f.dim, h, data, p)
    return BlockVector(_block_means(np.square(X @ (f.theta - h.theta)), p))


def _stacked_arrays(thetas, h: LinearPredictor, data: Dataset, p: BlockPartition):
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    if thetas.ndim != 2:
        raise DimensionError("thetas must be a (k, d) stack of coefficient vectors")
    return (thetas, *_used_arrays(thetas.shape[1], h, data, p))


def _chunks(k: int, p: BlockPartition):
    # Row slices of a stack: no (rows, N) temporary exceeds _STACK_ENTRIES.
    rows = max(1, _STACK_ENTRIES // p.total)
    return (slice(lo, lo + rows) for lo in range(0, k, rows))


def _stacked_products(X, thetas) -> np.ndarray:
    # One matrix-vector product per theta: each row is bitwise X @ theta.
    return np.matmul(X, thetas[:, :, None])[:, :, 0]


def _finite(out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise InvalidInput("block statistics must be finite")
    return out


def block_increments(thetas, h: LinearPredictor, data: Dataset, p: BlockPartition) -> np.ndarray:
    """Blockwise squared-loss difference of each row of a (k, d) stack of
    thetas and h, from the losses directly: shape (k, n)."""
    thetas, X, y = _stacked_arrays(thetas, h, data, p)
    loss_h = _kernels.block_losses(X, y, h.theta, p.n, p.m)
    out = np.empty((thetas.shape[0], p.n))
    for rows in _chunks(thetas.shape[0], p):
        resid = _stacked_products(X, thetas[rows])
        resid -= y
        out[rows] = np.square(resid, out=resid).reshape(-1, p.n, p.m).mean(axis=2) - loss_h
    return _finite(out)


def multiplier_components(
    thetas, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> np.ndarray:
    """Blockwise mean of 2 (theta - h)(X_i) (h(X_i) - Y_i) for each row of a
    (k, d) stack of thetas: shape (k, n)."""
    thetas, X, y = _stacked_arrays(thetas, h, data, p)
    resid_h = X @ h.theta - y
    out = np.empty((thetas.shape[0], p.n))
    for rows in _chunks(thetas.shape[0], p):
        z = _stacked_products(X, thetas[rows] - h.theta)
        z *= resid_h
        out[rows] = 2.0 * z.reshape(-1, p.n, p.m).mean(axis=2)
    return _finite(out)


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
    size = vals.shape[0]
    if size % 2 == 0:
        raise OddLengthRequired(f"median needs odd length, got {size}")
    mid = size // 2
    return float(np.partition(vals, mid)[mid])


def count_blocks_satisfying(v, threshold: float, direction: str = "ge") -> int:
    """Number of entries with value >= threshold ('ge') or <= threshold ('le')."""
    vals = _as_values(v)
    if direction == "ge":
        return int(np.count_nonzero(vals >= threshold))
    if direction == "le":
        return int(np.count_nonzero(vals <= threshold))
    raise InvalidInput(f"direction must be 'ge' or 'le', got {direction!r}")
