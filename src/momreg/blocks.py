"""Per-block statistics: quadratic and multiplier components, increments,
medians, and majority counting, plus the median and the temporary budget
that the package's per-block computations share.

``middle(a)`` is the one median-of-means median: the middle order statistic
along the odd last axis of ``a``, found by partitioning ``a`` in place (a
caller that must keep its input passes a copy).  ``row_slices(k,
row_entries)`` is the temporary budget of the stacked statistics here and
of the solver's audit and its block losses: slices of a k-row stack such
that no slice's temporary, row_entries entries per row, exceeds
``TEMP_ENTRIES`` (65,536) entries, with at least one row per slice.  ``_kernels.block_losses`` keeps
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
stack of thetas against one h and return (k, n) arrays from the block sums
of ``_residual_sums``, one stacked residual pass, which ``verify``'s lemma
check also calls, once per instance with its increments and multipliers
at once: ``np.matmul(X, thetas[:, :, None])`` runs one matrix-vector
product per theta, so every row is bitwise the single-theta ``X @ theta``
and every (k, n) row equals the one-theta statistic.  ``block_increment``
and ``multiplier_component`` are their one-row cases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import block_means
from .errors import DimensionError, InvalidInput, OddLengthRequired
from .model import (BlockPartition, Dataset, LinearPredictor, _float_array, _frozen_array,
                    _is_real, covered_rows)


@dataclass(frozen=True)
class BlockVector:
    """One statistic per block, in block order."""

    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.values, "block statistics")
        if v.ndim != 1:
            raise DimensionError("block vector must be 1-d")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("block statistics must be finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


# Largest temporary, in entries, of one slice of a stacked pass: the
# residuals of the stacked statistics here, the (candidates, pool, blocks)
# differences of the solver's witness-pool audit and the (thetas, n * d)
# products of its block losses from S and b.
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


def _residual_sums(X, y, stack, k: int, out, noisy: bool = False) -> None:
    """Write to out, an (s, n) array, the n block sums of each row of a
    residual pass over the covered rows X, y of the (s, d) stack [k
    increment thetas, h, offsets from h]: the squared residuals of the
    first k + 1 rows, then the offsets' products with h's residual.  With
    noisy, y holds the noise and the responses are h's own product plus it.
    The caller takes the means (``block_means`` divides the sums by m)."""
    z = np.matmul(X, stack[:, :, None])[:, :, 0]  # each row bitwise X @ theta
    if noisy:
        y = z[k] + y
    z[: k + 1] -= y
    z[k + 1 :] *= z[k]
    np.square(z[: k + 1], out=z[: k + 1])
    np.add.reduce(z.reshape(z.shape[0], out.shape[-1], -1), axis=-1, out=out)


def _block_statistics(thetas, h: LinearPredictor, data: Dataset, p: BlockPartition,
                      multipliers: bool) -> np.ndarray:
    """Block increments against h, or multiplier components, of each row of
    a (k, d) stack of thetas, one ``_residual_sums`` call (with h's row) per
    ``row_slices`` slice: shape (k, n)."""
    thetas = _float_array(thetas, "thetas")
    if thetas.ndim != 2:
        raise DimensionError("thetas must be a (k, d) stack of coefficient vectors")
    X, y = _used_arrays(thetas.shape[1], h, data, p)
    stats = np.empty((thetas.shape[0], p.n))
    for rows in row_slices(thetas.shape[0], p.n * p.m):
        part = thetas[rows]
        if multipliers:
            stack, k = np.concatenate([h.theta[None], part - h.theta]), 0
        else:
            stack, k = np.concatenate([part, h.theta[None]]), part.shape[0]
        sums = np.empty((stack.shape[0], p.n))
        _residual_sums(X, y, stack, k, sums)
        sums /= p.m
        stats[rows] = sums[1:] * 2.0 if multipliers else sums[:-1] - sums[-1]
    if not np.isfinite(stats).all():
        raise InvalidInput("block statistics must be finite")
    return stats


def block_increments(thetas, h: LinearPredictor, data: Dataset, p: BlockPartition) -> np.ndarray:
    """Blockwise squared-loss difference of each row of a (k, d) stack of
    thetas and h, from the losses directly: shape (k, n)."""
    return _block_statistics(thetas, h, data, p, multipliers=False)


def multiplier_components(
    thetas, h: LinearPredictor, data: Dataset, p: BlockPartition
) -> np.ndarray:
    """Blockwise mean of 2 (theta - h)(X_i) (h(X_i) - Y_i) for each row of a
    (k, d) stack of thetas: shape (k, n)."""
    return _block_statistics(thetas, h, data, p, multipliers=True)


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
    """The values of a BlockVector, or of a raw vector held to its rule."""
    return (v if isinstance(v, BlockVector) else BlockVector(v)).values


def median(v) -> float:
    """The unique middle order statistic of an odd-length vector."""
    vals = _as_values(v)
    if vals.shape[0] % 2 == 0:
        raise OddLengthRequired(f"median needs odd length, got {vals.shape[0]}")
    return float(middle(vals.copy()))


def count_blocks_satisfying(v, threshold: float, direction: str = "ge") -> int:
    """Number of entries with value >= threshold ('ge') or <= threshold ('le')."""
    vals = _as_values(v)
    if isinstance(threshold, bool):
        raise InvalidInput(f"threshold must be a number, not a bool, got {threshold!r}")
    if not _is_real(threshold) or threshold != threshold:  # -inf is a valid threshold
        raise InvalidInput(f"threshold must be a number, not NaN, got {threshold!r}")
    if direction == "ge":
        return int(np.count_nonzero(vals >= threshold))
    if direction == "le":
        return int(np.count_nonzero(vals <= threshold))
    raise InvalidInput(f"direction must be 'ge' or 'le', got {direction!r}")
