"""Synthetic data: Gaussian designs, heavy-tailed noise, malicious corruption."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInput
from .model import Dataset, DesignSpec

CORRUPTION_MODES = ("huge_response", "sign_flip", "adversarial_leverage")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: gaussian or student_t with dof > 2 (finite variance)."""

    kind: str = "gaussian"
    scale: float = 1.0
    dof: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "student_t"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.scale <= 0.0:
            raise ConfigError("noise scale must be positive")
        if self.kind == "student_t":
            if self.dof is None or self.dof <= 2.0:
                raise ConfigError("student_t noise needs dof > 2")
        elif self.dof is not None:
            raise ConfigError("gaussian noise takes no dof")


@dataclass(frozen=True)
class CorruptionSpec:
    """How many samples to corrupt and how.

    For guarantee-regime experiments keep count below (n-1)/2: each
    corrupted sample can ruin at most one block.
    """

    count: int
    mode: str = "huge_response"
    magnitude: float = 1e6
    indices: tuple[int, ...] | None = None  # None -> seeded random placement

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError("corruption count must be nonnegative")
        if self.mode not in CORRUPTION_MODES:
            raise ConfigError(f"unknown corruption mode {self.mode!r}")
        if self.magnitude <= 0.0:
            raise ConfigError("corruption magnitude must be positive")
        if self.indices is not None:
            idx = tuple(int(i) for i in self.indices)
            if len(idx) != self.count:
                raise ConfigError(
                    f"explicit index list has {len(idx)} entries, count is {self.count}"
                )
            object.__setattr__(self, "indices", idx)


def sample_arrays(
    N: int, theta_star: np.ndarray, cholesky: np.ndarray, scale: float, dof: float | None, seed
) -> tuple[np.ndarray, np.ndarray]:
    """The seeded (X, y) of ``generate``: X = Z L^T from N standard normal
    rows Z, then y = X theta* + scale eps, eps standard normal when dof is
    None and student_t with dof degrees of freedom otherwise.  Raises
    InvalidInput, as ``Dataset`` does, unless every entry is finite."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, cholesky.shape[0])) @ cholesky.T
    eps = rng.standard_normal(N) if dof is None else rng.standard_t(dof, N)
    y = X @ theta_star + scale * eps
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise InvalidInput("all sample entries must be finite")
    return X, y


def generate(
    N: int,
    d: int,
    theta_star,
    design: DesignSpec,
    noise: NoiseSpec,
    seed,
) -> Dataset:
    """Draw X_i ~ N(0, Sigma) and Y_i = <theta*, X_i> + eps_i, seeded: the
    rows first, then the noise.  The arrays come from ``sample_arrays``,
    which the lemma sweep of ``verify`` calls directly."""
    theta_star = np.asarray(theta_star, dtype=np.float64)
    if theta_star.shape != (d,):
        raise ConfigError(f"theta_star must have shape ({d},)")
    if design.dim != d:
        raise ConfigError(f"design dim {design.dim} does not match d={d}")
    if N < 1:
        raise ConfigError("N must be positive")
    return Dataset(*sample_arrays(N, theta_star, design.cholesky, noise.scale, noise.dof, seed))


def corrupt(data: Dataset, spec: CorruptionSpec, seed) -> tuple[Dataset, list[int]]:
    """Apply the corruption to spec.count samples; untouched rows bit-identical.

    Returns the corrupted dataset and the sorted list of corrupted indices.
    """
    N = data.n_samples
    if spec.count > N:
        raise ConfigError(f"cannot corrupt {spec.count} of {N} samples")
    if spec.indices is not None:
        idx = np.asarray(spec.indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= N):
            raise ConfigError("explicit corruption index out of range")
        if np.unique(idx).size != idx.size:
            raise ConfigError("explicit corruption indices must be distinct")
    else:
        idx = np.sort(np.random.default_rng(seed).choice(N, spec.count, replace=False))
    if spec.count == 0:
        return data, []

    X = data.features.copy()
    y = data.responses.copy()
    if spec.mode == "huge_response":
        y[idx] = spec.magnitude
    elif spec.mode == "sign_flip":
        y[idx] = -y[idx]
    else:  # adversarial_leverage: park the design row on a fixed unit vector
        u = np.zeros(data.dim)
        u[0] = 1.0
        X[idx] = spec.magnitude * u
        y[idx] = -spec.magnitude
    return Dataset(X, y), [int(i) for i in np.sort(idx)]

