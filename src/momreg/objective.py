"""Minimax median-of-means objectives and regularization.

The population objective max over g of the median block increment is not
exactly computable, so phi_hat / phi_lambda_hat return a certified LOWER
bound together with an explicit witness g: the best value found by
adversary ascent runs started from f, the least-squares fit, and random
perturbations.  Diagnostics downstream are phrased so a lower bound with a
witness suffices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .blocks import block_increment, median, middle
from .errors import ConfigError, DimensionError, EmptyLambdaWindow, InvalidInput
from .model import (BlockPartition, Dataset, LinearPredictor, _check_count, _check_number,
                    _check_theta, _float_array, _frozen_array)


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

def default_slope_weights(d: int) -> np.ndarray:
    """Nonincreasing sorted-l1 weights w_i = sqrt(log(2d / i)), i = 1..d."""
    i = np.arange(1, d + 1, dtype=np.float64)
    return np.sqrt(np.log(2.0 * d / i))


@dataclass(frozen=True)
class Regularizer:
    """A norm used as the price tag: none, l1, or slope (sorted l1)."""

    kind: str = "none"
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("none", "l1", "slope"):
            raise ConfigError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "slope":
            if self.weights is None:
                raise ConfigError("slope regularizer needs weights")
            w = _frozen_array(self.weights, "slope weights", ConfigError)
            if w.ndim != 1 or w.shape[0] < 1:
                raise ConfigError("slope weights must be a nonempty vector")
            _check_number("least slope weight", float(w.min()))
            _check_number("greatest slope weight", float(w.max()))
            if np.any(np.diff(w) > 0.0):
                raise ConfigError("slope weights must be nonincreasing")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ConfigError(f"{self.kind} regularizer takes no weights")

    @classmethod
    def none(cls) -> "Regularizer":
        return cls("none")

    @classmethod
    def l1(cls) -> "Regularizer":
        return cls("l1")

    @classmethod
    def slope(cls, weights=None, d: int | None = None) -> "Regularizer":
        if weights is None:
            if d is None:
                raise ConfigError("slope needs explicit weights or a dimension")
            weights = default_slope_weights(d)
        return cls("slope", weights)


def _theta_of(f) -> np.ndarray:
    """The coefficients of a predictor, or of a raw vector held to
    ``LinearPredictor``'s rule without its copy."""
    if isinstance(f, LinearPredictor):
        return f.theta
    return _check_theta(_float_array(f, "coefficients"))


def slope_weights_for(reg: Regularizer, d: int) -> np.ndarray:
    """The slope weights of reg for coefficient vectors of d entries; any
    other number of weights raises DimensionError."""
    if reg.weights.shape[0] != d:
        raise DimensionError(f"theta has {d} entries, slope weights {reg.weights.shape[0]}")
    return reg.weights


def psi_batch(reg: Regularizer, thetas: np.ndarray) -> np.ndarray:
    """psi evaluated row-wise on a (k, d) matrix of coefficient vectors."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if reg.kind == "none":
        return np.zeros(thetas.shape[0])
    if reg.kind == "l1":
        return np.abs(thetas).sum(axis=1)
    weights = slope_weights_for(reg, thetas.shape[1])
    # vecdot takes one dot product per row, as a single vector's a @ w does.
    return np.vecdot(np.sort(np.abs(thetas), axis=1)[:, ::-1], weights)


def psi(reg: Regularizer, f) -> float:
    """Evaluate the regularization norm on a predictor or coefficient vector."""
    return float(psi_batch(reg, _theta_of(f)[None, :])[0])


def _pava_nonincreasing(z: np.ndarray) -> np.ndarray:
    # Pool-adjacent-violators projection onto nonincreasing sequences.
    size = z.shape[0]
    means = np.empty(size)
    counts = np.empty(size, dtype=np.int64)
    k = 0
    for val in z:
        means[k] = val
        counts[k] = 1
        k += 1
        while k > 1 and means[k - 2] < means[k - 1]:
            merged = counts[k - 2] + counts[k - 1]
            means[k - 2] = (
                means[k - 2] * counts[k - 2] + means[k - 1] * counts[k - 1]
            ) / merged
            counts[k - 2] = merged
            k -= 1
    out = np.empty(size)
    pos = 0
    for i in range(k):
        out[pos : pos + counts[i]] = means[i]
        pos += counts[i]
    return out


def prox_psi(reg: Regularizer, theta: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * psi: soft-thresholding for l1, sorted prox for slope.

    theta is one coefficient vector or a (k, d) matrix mapped row-wise;
    t must be finite and >= 0.
    """
    if not 0.0 <= t < math.inf:
        raise InvalidInput(f"prox step t must be finite and >= 0, got {t!r}")
    if reg.kind == "none" or t == 0.0:
        return np.asarray(theta, dtype=np.float64).copy()
    theta = np.asarray(theta, dtype=np.float64)
    if reg.kind == "l1":
        return np.sign(theta) * np.maximum(np.abs(theta) - t, 0.0)
    weights = slope_weights_for(reg, theta.shape[-1])
    if theta.ndim == 2:
        return np.stack([prox_psi(reg, row, t) for row in theta])
    a = np.abs(theta)
    order = np.argsort(-a, kind="stable")
    x = np.maximum(_pava_nonincreasing(a[order] - t * weights), 0.0)
    mag = np.empty_like(a)
    mag[order] = x
    return np.sign(theta) * mag


# ---------------------------------------------------------------------------
# objective configuration and tuning constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectiveConfig:
    """Regularization strength and norm; lam == 0 iff kind is 'none'."""

    lam: float = 0.0
    regularizer: Regularizer = field(default_factory=Regularizer.none)

    def __post_init__(self):
        _check_number("lambda", self.lam, strict=False)
        if (self.lam == 0.0) != (self.regularizer.kind == "none"):
            raise ConfigError("lambda must be 0 exactly when the regularizer is none")


@dataclass(frozen=True)
class ConditionParams:
    """Tuning constants (gamma1, gamma2, r, rho) of the block conditions."""

    gamma1: float
    gamma2: float
    r: float
    rho: float = 1.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "r", "rho"):
            _check_number(name, getattr(self, name))


def lambda_window(params: ConditionParams) -> tuple[float, float]:
    """Admissible regularization interval [3 g2 r^2 / rho, (g1/2) r^2 / rho].

    Nonempty exactly when 6 * gamma2 <= gamma1.
    """
    if 6.0 * params.gamma2 > params.gamma1:
        raise EmptyLambdaWindow(
            f"6*gamma2 = {6.0 * params.gamma2} exceeds gamma1 = {params.gamma1}"
        )
    lo = 3.0 * params.gamma2 * params.r * params.r / params.rho
    hi = params.gamma1 / 2.0 * params.r * params.r / params.rho
    return lo, hi


# ---------------------------------------------------------------------------
# median increments and the estimated minimax value
# ---------------------------------------------------------------------------

def med_increment(
    f: LinearPredictor, g: LinearPredictor, data: Dataset, p: BlockPartition
) -> float:
    """Median over blocks of the loss increment of f against g."""
    return median(block_increment(f, g, data, p))


@dataclass(frozen=True)
class AdversaryBudget:
    """Ascent budget: restart count and iterations per restart."""

    restarts: int = 4
    iterations: int = 120

    def __post_init__(self):
        _check_count("restarts", self.restarts, 1)
        _check_count("iterations", self.iterations)


@dataclass(frozen=True)
class PhiResult:
    """A certified lower bound of the minimax value plus the witness g."""

    value: float
    witness: LinearPredictor
    explored: tuple[np.ndarray, ...] | None = None


def median_block_index(inc: np.ndarray, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise median block of an (R, n) increment matrix: the index of the
    block attaining each row's median (lowest index on ties) and the median,
    a view of the partitioned copy of inc: a new one, or the buffer scratch."""
    if scratch is None:
        scratch = inc.copy()
    else:
        scratch[...] = inc
    med = middle(scratch)
    return (inc == med[:, None]).argmax(axis=1), med


def block_loss_gradient(S, b, thetas, j) -> np.ndarray:
    """Row k: gradient 2 (S_j thetas_k - b_j) of block j = j[k]'s mean
    squared loss, from the per-block statistics of ``_kernels.block_stats``."""
    grad = (S.take(j, axis=0) @ thetas[:, :, None])[:, :, 0]
    grad -= b.take(j, axis=0)
    grad *= 2.0
    return grad


def prox_gradient_step(reg, S, b, thetas, j, step: float, lam: float, out=None) -> np.ndarray:
    """One median-block prox-gradient step, row-wise: row k moves against
    the gradient of block j[k]'s loss, then through the prox of
    step * lam * psi.  The learner and the adversary both take it.  Given
    out, an array of the shape of thetas, the new iterates go there too."""
    grad = block_loss_gradient(S, b, thetas, j)
    grad *= step
    if not lam:
        return np.subtract(thetas, grad, out=grad if out is None else out)
    new = prox_psi(reg, np.subtract(thetas, grad, out=grad), step * lam)
    if out is not None:
        out[...] = new
    return new


def gram_step_size(X: np.ndarray, m: int) -> float:
    """Safe gradient step for blockwise squared losses (0.7 / Lipschitz bound)."""
    N, d = X.shape
    lam_max = float(np.linalg.eigvalsh((X.T @ X) / N)[-1])
    lip = 2.0 * lam_max * (1.0 + math.sqrt(d / m)) ** 2
    return 0.7 / max(lip, 1e-12)


# Overflow is expected here and caught: a start that overflows stops at its
# first non-finite increment vector.
@np.errstate(over="ignore", invalid="ignore")
def _ascend_adversary(S, b, theta_f, starts, lam, reg, psi_f, step, iterations):
    """Adversary ascent from every row of starts, all rows in lockstep.

    Each iteration takes the increments of every start from one
    ``_kernels.block_increments`` call, row k bitwise the per-row
    ``block_increment`` of that start.  A row stops at its first non-finite
    increment vector, as a sequential ascent from that start would; a
    non-finite iterate stops its row one round later, before it is
    evaluated.  A stopped row stays in the stack, and every call of the
    loop treats rows independently, so the running rows keep their bits;
    the loop ends early once every row has stopped.

    The loop only records: each iteration's values go into an
    (iterations + 1, R) table and each next iterate into the (R,
    iterations + 1, d) array of iterates, whose column 0 holds the starts.
    After the loop a start's values from its stop on read -inf, and one
    argmax per start picks its best iterate: the first maximum, the one a
    running best replaced only by a strictly larger value would keep.  A
    NaN value counts as -inf, so it never wins, and a start with no value
    above -inf keeps its own start at -inf.  Returns per start the best
    value and its g, then the iterates with how many of each start's were
    evaluated.
    """
    R, d = starts.shape
    values = np.empty((iterations + 1, R))
    explored = np.empty((R, iterations + 1, d))
    explored[:, 0] = starts
    evaluated = np.full(R, iterations + 1, dtype=np.intp)
    g = starts
    for t in range(iterations + 1):
        inc = _kernels.block_increments(S, b, theta_f, g)
        # A finite sum means finite entries; only an infinite or NaN sum
        # (or one that overflows) needs the per-row test.
        if not math.isfinite(inc.sum()):
            evaluated[~np.isfinite(inc).all(axis=1) & (evaluated > t)] = t
            if (evaluated <= t).all():
                break
        j_star, med = median_block_index(inc)
        values[t] = med + lam * (psi_f - psi_batch(reg, g)) if lam else med
        if t == iterations:
            break
        s = step / math.sqrt(t + 1.0)
        g = prox_gradient_step(reg, S, b, g, j_star, s, lam)
        explored[:, t + 1] = g
    values[np.arange(iterations + 1)[:, None] >= evaluated] = -math.inf
    np.fmax(values, -math.inf, out=values)
    best = values.argmax(axis=0)
    start = np.arange(R)
    best_value = values[best, start]
    if not lam:
        best_value += 0.0  # the value med + 0.0: a -0.0 median reads +0.0
    return best_value, explored[start, best], (explored, evaluated)


def phi_lambda_hat(
    f: LinearPredictor,
    data: Dataset,
    p: BlockPartition,
    cfg: ObjectiveConfig,
    budget: AdversaryBudget = AdversaryBudget(),
    seed: int = 0,
    collect_explored: bool = False,
) -> PhiResult:
    """Lower-bound the regularized minimax value at f by adversary ascent.

    Ascent restarts begin at f itself, the least-squares fit, and seeded
    random perturbations of the least-squares fit, and run in lockstep
    through the shared median-block prox-gradient step.  Every iterate of
    every restart is evaluated and the best value (with its witness g)
    returned; ties go to the earliest restart.  ``explored`` lists the
    evaluated iterates restart by restart.
    """
    from .solver import _setup  # local import to avoid a cycle

    theta_f = f.theta
    d = theta_f.shape[0]
    if d != data.dim:
        raise DimensionError(f"predictor dim {d} vs data dim {data.dim}")
    X, y, S, b, ols, step = _setup(data, p)
    lam = cfg.lam
    reg = cfg.regularizer
    psi_f = psi(reg, theta_f) if lam else 0.0
    rng = np.random.default_rng(seed)
    scale = float(np.linalg.norm(y - X @ ols)) / math.sqrt(X.shape[0])

    starts = np.empty((budget.restarts, d))
    starts[0] = theta_f
    for k in range(1, budget.restarts):
        starts[k] = ols if k == 1 else ols + scale * rng.standard_normal(d)

    values, gs, (explored, counts) = _ascend_adversary(
        S, b, theta_f, starts, lam, reg, psi_f, step, budget.iterations
    )
    # The start at f always scores (its increments are exactly 0), so the
    # best start is finite.
    k = int(np.argmax(values))
    return PhiResult(
        value=float(values[k]),
        witness=LinearPredictor(gs[k]),
        explored=(
            tuple(g for row, count in zip(explored, counts) for g in row[:count])
            if collect_explored
            else None
        ),
    )


def phi_hat(
    f: LinearPredictor,
    data: Dataset,
    p: BlockPartition,
    budget: AdversaryBudget = AdversaryBudget(),
    seed: int = 0,
    collect_explored: bool = False,
) -> PhiResult:
    """Unregularized minimax lower bound: phi_lambda_hat with lambda = 0."""
    return phi_lambda_hat(
        f, data, p, ObjectiveConfig(), budget, seed, collect_explored
    )
