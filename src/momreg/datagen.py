"""Synthetic data: Gaussian designs, heavy-tailed noise, malicious corruption."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import Dataset, DesignSpec, _check_count, _check_number

NOISE_KINDS = ("gaussian", "student_t")
CORRUPTION_MODES = ("huge_response", "sign_flip", "adversarial_leverage")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: gaussian or student_t with dof > 2 (finite variance)."""

    kind: str = "gaussian"
    scale: float = 1.0
    dof: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        _check_number("noise scale", self.scale)
        if self.kind == "student_t":
            _check_number("student_t noise dof", self.dof, 2.0)
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
        _check_count("corruption count", self.count)
        if self.mode not in CORRUPTION_MODES:
            raise ConfigError(f"unknown corruption mode {self.mode!r}")
        _check_number("corruption magnitude", self.magnitude)
        if self.indices is not None:
            for i in self.indices:
                _check_count("explicit corruption index", i)
            idx = tuple(int(i) for i in self.indices)
            if len(idx) != self.count:
                raise ConfigError(
                    f"explicit index list has {len(idx)} entries, count is {self.count}"
                )
            object.__setattr__(self, "indices", idx)


def generate(
    N: int,
    d: int,
    theta_star,
    design: DesignSpec,
    noise: NoiseSpec,
    seed,
) -> Dataset:
    """Draw X_i ~ N(0, Sigma) and Y_i = <theta*, X_i> + eps_i, seeded: the
    rows first, X = Z L^T for N standard normal rows Z, then the noise,
    standard normal for gaussian noise and student_t otherwise."""
    _check_count("N", N, 1)
    _check_count("d", d, 1)
    theta_star = np.asarray(theta_star, dtype=np.float64)
    if theta_star.shape != (d,):
        raise ConfigError(f"theta_star must have shape ({d},)")
    if design.dim != d:
        raise ConfigError(f"design dim {design.dim} does not match d={d}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, d)) @ design.cholesky.T
    eps = rng.standard_normal(N) if noise.dof is None else rng.standard_t(noise.dof, N)
    return Dataset(X, X @ theta_star + noise.scale * eps)


def corrupt(data: Dataset, spec: CorruptionSpec, seed) -> tuple[Dataset, list[int]]:
    """Apply the corruption to spec.count samples; untouched rows bit-identical.

    Returns the corrupted dataset and the sorted list of corrupted indices.
    """
    N = data.n_samples
    if spec.count > N:
        raise ConfigError(f"cannot corrupt {spec.count} of {N} samples")
    if spec.indices is not None:
        idx = np.asarray(spec.indices, dtype=np.int64)
        if idx.size and idx.max() >= N:  # CorruptionSpec keeps them >= 0
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

