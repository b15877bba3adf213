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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, InvalidInput, OddLengthRequired
from .model import BlockPartition, Dataset, LinearPredictor, _frozen_array


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


def _used_arrays(f: LinearPredictor, h: LinearPredictor, data: Dataset, p: BlockPartition):
    if f.dim != h.dim:
        raise DimensionError(f"predictor dims differ: {f.dim} vs {h.dim}")
    if f.dim != data.dim:
        raise DimensionError(f"predictor dim {f.dim} vs data dim {data.dim}")
    if p.total > data.n_samples:
        raise DimensionError(
            f"partition covers {p.total} samples but dataset has {data.n_samples}"
        )
    return data.features[: p.total], data.responses[: p.total]


def _block_means(v: np.ndarray, p: BlockPartition) -> np.ndarray:
    return v.reshape(p.n, p.m).mean(axis=1)


def quad_component(
    f: LinearPredictor, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> BlockVector:
    """Blockwise mean of (f - h)^2 (X_i)."""
    X, _ = _used_arrays(f, h, data, p)
    return BlockVector(_block_means(np.square(X @ (f.theta - h.theta)), p))


def multiplier_component(
    f: LinearPredictor, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> BlockVector:
    """Blockwise mean of 2 (f - h)(X_i) (h(X_i) - Y_i): the noise-interaction term."""
    X, y = _used_arrays(f, h, data, p)
    z = X @ (f.theta - h.theta)
    return BlockVector(2.0 * _block_means(z * (X @ h.theta - y), p))


def block_increment(
    f: LinearPredictor, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> BlockVector:
    """Blockwise squared-loss difference of f and h, from the losses directly."""
    X, y = _used_arrays(f, h, data, p)
    lf = _kernels.block_losses(X, y, f.theta, p.n, p.m)
    return BlockVector(lf - _kernels.block_losses(X, y, h.theta, p.n, p.m))


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
