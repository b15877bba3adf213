"""Core data model: samples, linear predictors, block partitions, design geometry.

All types are immutable after construction (arrays are copied and marked
read-only), so they are safe to share across parallel workers.  Counts and
numbers are checked by ``_check_count`` and ``_check_number`` alone, since
NaN fails every comparison and a bool is not a count.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    InvalidInput,
    OddBlockCountRequired,
    ParseError,
    TooManyBlocks,
)


# Largest magnitude of a config number or a dataset cell: far beyond any scale
# a run uses, and small enough that the squares and products of it stay finite.
MAX_MAGNITUDE = 1e100


def _check_count(name, value, lo=0, error=ConfigError) -> None:
    """Raise error unless value is an int or numpy integer, not a bool, >= lo."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise error(f"{name} must be an integer >= {lo}, got {value!r}")


def _is_real(value) -> bool:
    """Whether value is a real number: an int, float or numpy one, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_number(name, value, lo=0.0, strict=True, error=ConfigError) -> None:
    """Raise error unless value is a finite non-bool number > lo (>= lo when not strict)."""
    if not (_is_real(value) and abs(value) < math.inf and (value > lo if strict else value >= lo)):
        raise error(f"{name} must be finite and {'>' if strict else '>='} {lo}, got {value!r}")


def _float_array(values, name, error=InvalidInput, copy=None) -> np.ndarray:
    """values as a C-ordered float array, a copy when copy; a ragged or
    non-numeric sequence raises error instead of numpy's ValueError."""
    try:
        return np.array(values, dtype=np.float64, order="C", copy=copy)
    except (TypeError, ValueError):
        raise error(f"{name} must be a rectangular array of numbers") from None


def _frozen_array(values, name, error=InvalidInput) -> np.ndarray:
    arr = _float_array(values, name, error, copy=True)
    arr.flags.writeable = False
    return arr


def _check_theta(theta: np.ndarray) -> np.ndarray:
    """theta, a float array, once checked to be a finite 1-d coefficient vector."""
    if theta.ndim != 1:
        raise DimensionError("theta must be a 1-d coefficient vector")
    if not np.isfinite(theta).all():
        raise InvalidInput("coefficients must be finite")
    return theta


@dataclass(frozen=True)
class Dataset:
    """An i.i.d. sample: N design rows (features) and N responses."""

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        X = _frozen_array(self.features, "features")
        y = _frozen_array(self.responses, "responses")
        if X.ndim != 2:
            raise DimensionError("features must be a 2-d array")
        if y.ndim != 1:
            raise DimensionError("responses must be a 1-d array")
        if X.shape[0] != y.shape[0]:
            raise DimensionError(
                f"{X.shape[0]} feature rows vs {y.shape[0]} responses"
            )
        if X.shape[0] < 1:
            raise InvalidInput("need at least one sample")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise InvalidInput("all sample entries must be finite")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "responses", y)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LinearPredictor:
    """A linear function x -> <theta, x>.  No implicit intercept."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_theta(_frozen_array(self.theta, "theta")))

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class BlockPartition:
    """n disjoint contiguous blocks of m indices each over {0, ..., n*m-1}.

    n is forced odd so the median of per-block statistics is the unique
    middle order statistic.
    """

    n: int
    m: int

    def __post_init__(self):
        _check_count("block count n", self.n, 1, InvalidInput)
        if self.n % 2 == 0:
            raise OddBlockCountRequired(f"block count n={self.n} must be odd")
        _check_count("block size m", self.m, 1, InvalidInput)

    @property
    def total(self) -> int:
        """Number of samples covered by the partition (n * m)."""
        return self.n * self.m


def make_partition(N: int, n: int) -> BlockPartition:
    """Split {0..N-1} into n contiguous blocks of size m = floor(N/n).

    The trailing N - n*m indices are dropped.  n must be odd and at most N.
    """
    _check_count("sample count N", N, 1, InvalidInput)
    _check_count("block count n", n, 1, InvalidInput)
    if n % 2 == 0:
        raise OddBlockCountRequired(f"block count n={n} must be odd")
    if n > N:
        raise TooManyBlocks(f"requested n={n} blocks from N={N} samples")
    return BlockPartition(n=n, m=N // n)


def covered_rows(data: Dataset, p: BlockPartition) -> tuple[np.ndarray, np.ndarray]:
    """Features and responses of the first p.total samples, the ones p covers."""
    if p.total > data.n_samples:
        raise DimensionError(
            f"partition covers {p.total} samples but dataset has {data.n_samples}"
        )
    return data.features[: p.total], data.responses[: p.total]


@dataclass(frozen=True)
class DesignSpec:
    """Population design for synthetic data: the covariance of X.

    Gives exact L2(mu) geometry: distances between linear predictors are
    computed from the covariance, not estimated from samples.
    """

    covariance: np.ndarray

    def __post_init__(self):
        cov = _frozen_array(self.covariance, "covariance")
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
            raise DimensionError("covariance must be a non-empty square matrix")
        scale = float(np.max(np.abs(cov)))
        _check_number("greatest covariance magnitude", scale, 0.0, False, InvalidInput)
        if float(np.max(np.abs(cov - cov.T))) > 1e-12 * max(scale, 1e-300):
            raise InvalidInput("covariance must be symmetric (1e-12 relative)")
        if float(np.linalg.eigvalsh(cov)[0]) <= 0.0:
            raise InvalidInput("covariance must be positive definite")
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def identity(cls, d: int) -> "DesignSpec":
        return cls(np.eye(d))

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    @cached_property
    def cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.covariance)


@np.errstate(over="ignore")  # an overflowing difference reads +inf
def population_l2_distance(
    f: LinearPredictor, h: LinearPredictor, design: DesignSpec
) -> float:
    """Exact L2(mu) distance sqrt((tf - th)' Sigma (tf - th)) under the design."""
    if f.dim != h.dim:
        raise DimensionError(f"predictor dims differ: {f.dim} vs {h.dim}")
    if f.dim != design.dim:
        raise DimensionError(f"predictor dim {f.dim} vs design dim {design.dim}")
    q = float(population_sq_norms((f.theta - h.theta)[None], design)[0])
    return math.sqrt(max(q, 0.0))


@np.errstate(over="ignore", invalid="ignore")
def population_sq_norms(deltas: np.ndarray, design: DesignSpec) -> np.ndarray:
    """Squared L2(mu) norms delta' Sigma delta of the rows of a (k, d) stack.

    A stack of vector-matrix products and row-wise dot products, so each
    entry is bitwise the one-vector ``delta @ Sigma @ delta``; one (k, d)
    matrix product rounds differently.  A row that is not finite, such as
    a difference of finite vectors that overflowed, reads +inf, and so
    does a norm that overflows.
    """
    q = np.vecdot(np.matmul(deltas[:, None, :], design.covariance)[:, 0], deltas)
    # A row that is not finite has a norm of +inf or NaN (inf * 0): with a
    # positive diagonal, its infinite entry's own term is +inf or NaN.
    # fmin reads NaN as +inf and keeps every other value.
    return np.fmin(q, math.inf)


def row_permutation(n_samples: int, seed) -> np.ndarray:
    """The seeded row order applied before partitioning when
    ``partition.permute`` is set: row i of the permuted dataset is row
    perm[i] of the original."""
    return np.random.default_rng(seed).permutation(n_samples)


# ---------------------------------------------------------------------------
# CSV interface: header row x0,x1,...,x{d-1},y; one sample per row
# ---------------------------------------------------------------------------

def load_dataset(path) -> Dataset:
    """Read a UTF-8 dataset CSV.  Raises ParseError naming the offending row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise ParseError("empty CSV file", row=1)
        header = [h.strip() for h in header]
        d = len(header) - 1
        expected = [f"x{i}" for i in range(d)] + ["y"]
        if d < 1 or header != expected:
            raise ParseError(
                f"bad header {header!r}; expected x0,...,x{{d-1}},y", row=1
            )
        feats: list[list[float]] = []
        resp: list[float] = []
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ParseError(
                    f"row {lineno}: expected {d + 1} cells, got {len(row)}",
                    row=lineno,
                )
            try:
                vals = [float(cell) for cell in row]
            except ValueError as exc:
                raise ParseError(
                    f"row {lineno}: non-numeric cell in {row!r}", row=lineno
                ) from exc
            if not all(abs(v) <= MAX_MAGNITUDE for v in vals):  # False for nan and inf
                what = "non-finite cell"
                if all(map(math.isfinite, vals)):
                    what = f"cell of magnitude above {MAX_MAGNITUDE:g}"
                raise ParseError(f"row {lineno}: {what} in {row!r}", row=lineno)
            feats.append(vals[:-1])
            resp.append(vals[-1])
        if not feats:
            raise ParseError("CSV has a header but no data rows", row=2)
    return Dataset(np.asarray(feats), np.asarray(resp))


def save_dataset(path, data: Dataset) -> None:
    """Write a dataset in the CSV format load_dataset reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(data.dim)] + ["y"])
        for xi, yi in zip(data.features, data.responses):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
