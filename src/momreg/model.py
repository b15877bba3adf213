"""Core data model: samples, linear predictors, block partitions, design geometry.

All types are immutable after construction (arrays are copied and marked
read-only), so they are safe to share across parallel workers.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    InvalidInput,
    OddBlockCountRequired,
    ParseError,
    TooManyBlocks,
)


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype, order="C", copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """An i.i.d. sample: N design rows (features) and N responses."""

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        X = _frozen_array(self.features)
        y = _frozen_array(self.responses)
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
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
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
        t = _frozen_array(self.theta)
        if t.ndim != 1:
            raise DimensionError("theta must be a 1-d coefficient vector")
        if not np.all(np.isfinite(t)):
            raise InvalidInput("coefficients must be finite")
        object.__setattr__(self, "theta", t)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    def predict(self, x):
        return predict(self, x)


def predict(f: LinearPredictor, x):
    """Evaluate f on one point (d,) -> float or a batch (k, d) -> (k,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != f.dim:
            raise DimensionError(f"point has {x.shape[0]} entries, theta has {f.dim}")
        return float(x @ f.theta)
    if x.ndim == 2:
        if x.shape[1] != f.dim:
            raise DimensionError(f"points have {x.shape[1]} columns, theta has {f.dim}")
        return x @ f.theta
    raise DimensionError("x must be 1-d or 2-d")


@dataclass(frozen=True)
class BlockPartition:
    """n disjoint contiguous blocks of m indices each over {0, ..., n*m-1}.

    n is forced odd so the median of per-block statistics is the unique
    middle order statistic.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInput("block count must be positive")
        if self.n % 2 == 0:
            raise OddBlockCountRequired(f"block count n={self.n} must be odd")
        if self.m < 1:
            raise InvalidInput("block size must be positive")

    @property
    def total(self) -> int:
        """Number of samples covered by the partition (n * m)."""
        return self.n * self.m

    @cached_property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        return tuple((j * self.m, (j + 1) * self.m) for j in range(self.n))

    def block_slice(self, j: int) -> slice:
        if not 0 <= j < self.n:
            raise IndexError(f"block index {j} out of range [0, {self.n})")
        return slice(j * self.m, (j + 1) * self.m)


def make_partition(N: int, n: int) -> BlockPartition:
    """Split {0..N-1} into n contiguous blocks of size m = floor(N/n).

    The trailing N - n*m indices are dropped.  n must be odd and at most N.
    """
    if N < 1:
        raise InvalidInput("sample count must be positive")
    if n < 1:
        raise InvalidInput("block count must be positive")
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
    """Population design for synthetic data: covariance of X, noise variance.

    Gives exact L2(mu) geometry: distances between linear predictors are
    computed from the covariance, not estimated from samples.
    """

    covariance: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        cov = _frozen_array(self.covariance)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionError("covariance must be a square matrix")
        scale = max(float(np.max(np.abs(cov))), 1e-300)
        if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
            raise InvalidInput("covariance must be symmetric (1e-12 relative)")
        if float(np.linalg.eigvalsh(cov)[0]) <= 0.0:
            raise InvalidInput("covariance must be positive definite")
        if self.noise_variance < 0.0:
            raise InvalidInput("noise variance must be nonnegative")
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def identity(cls, d: int, noise_variance: float = 0.0) -> "DesignSpec":
        return cls(np.eye(d), noise_variance)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    @cached_property
    def cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self.covariance)


def population_l2_distance(
    f: LinearPredictor, h: LinearPredictor, design: DesignSpec
) -> float:
    """Exact L2(mu) distance sqrt((tf - th)' Sigma (tf - th)) under the design."""
    if f.dim != h.dim:
        raise DimensionError(f"predictor dims differ: {f.dim} vs {h.dim}")
    if f.dim != design.dim:
        raise DimensionError(f"predictor dim {f.dim} vs design dim {design.dim}")
    delta = f.theta - h.theta
    q = float(delta @ design.covariance @ delta)
    return math.sqrt(max(q, 0.0))


def permute_dataset(data: Dataset, seed) -> Dataset:
    """Seeded row permutation, applied before partitioning when requested."""
    perm = np.random.default_rng(seed).permutation(data.n_samples)
    return Dataset(data.features[perm], data.responses[perm])


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
            if not all(math.isfinite(v) for v in vals):
                raise ParseError(
                    f"row {lineno}: non-finite cell in {row!r}", row=lineno
                )
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
