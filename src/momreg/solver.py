"""Fitting procedures: median-block descent-ascent, grid oracle, baselines.

The descent-ascent scheme has no monotonicity guarantee, so the returned
coefficient vector is not the last iterate: every iterate of every restart
is audited with a witness-pool surrogate of the regularized minimax value
and the minimizer of the audited value is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, DimensionError, DivergenceError, GridCapExceeded
from .model import BlockPartition, Dataset, LinearPredictor, covered_rows
from .objective import (
    ObjectiveConfig,
    gram_step_size,
    median_block_index,
    prox_gradient_step,
    psi,
    psi_batch,
    row_increments,
)

_AUDIT_EXTRA_WITNESSES = 3
_AUDIT_TOURNAMENT_SIZE = 64
_REFINE_SCALES = (0.05, 0.02, 0.01, 0.005, 0.002)
_REFINE_EVAL_CAP = 60
# Moves of a refine sweep audited in one batch: moves after the first
# improving one are wasted, so the batch stays short.
_REFINE_BATCH = 8
# Witnesses a refine batch is screened against before the full audit: those
# with the largest medians at the current theta.  The screened value is a
# maximum over fewer witnesses, so a move it does not put below the current
# value cannot improve on the full pool either.
_REFINE_SCREEN = 4
# Entries of the (candidates, pool, blocks) array the audit partitions at
# once: bounds the temporary for large batches and pools.
_AUDIT_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SolverConfig:
    """Descent-ascent configuration.

    step_f / step_g default to an automatic fraction of the inverse
    blockwise Lipschitz estimate when None.  With decay=True both steps
    stay constant for the first third of the iterations (so a bad start,
    e.g. the least-squares fit on corrupted data, can be walked back) and
    then shrink like 1/sqrt(t).
    """

    step_f: float | None = None
    step_g: float | None = None
    iterations: int = 300
    restarts: int = 2
    tolerance: float = 1e-6
    seed: int = 0
    decay: bool = True

    def __post_init__(self):
        if self.step_f is not None and self.step_f <= 0.0:
            raise ConfigError("step_f must be positive")
        if self.step_g is not None and self.step_g <= 0.0:
            raise ConfigError("step_g must be positive")
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if self.restarts < 1:
            raise ConfigError("restarts must be positive")
        if self.tolerance <= 0.0:
            raise ConfigError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class Trace:
    """The descent-ascent loop, one (restarts, iterations) array per field;
    iteration t of restart k sits at [k, t - 1].

    median_block and med_increment are the adversary's median block and
    the median increment it was chosen at; step_norm_f / step_norm_g are
    the Euclidean lengths of the learner and adversary steps.
    """

    median_block: np.ndarray
    med_increment: np.ndarray
    step_norm_f: np.ndarray
    step_norm_g: np.ndarray


@dataclass(frozen=True)
class SolverResult:
    theta_hat: np.ndarray
    trace: Trace
    converged: bool
    best_surrogate: float

    @property
    def predictor(self) -> LinearPredictor:
        return LinearPredictor(self.theta_hat)


def erm_fit(data: Dataset) -> LinearPredictor:
    """Least-squares baseline via the normal equations.

    Singular Gram matrices get a ridge jitter of 1e-10 instead of failing.
    """
    X = data.features
    gram = X.T @ X
    rhs = X.T @ data.responses
    try:
        theta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        theta = np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), rhs)
    if not np.all(np.isfinite(theta)):
        theta = np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), rhs)
    return LinearPredictor(theta)


def lasso_fit(
    data: Dataset, lam: float, iterations: int = 1000, tol: float = 1e-10
) -> LinearPredictor:
    """Plain l1-penalized least squares (ISTA on the mean squared loss)."""
    X = data.features
    y = data.responses
    N = X.shape[0]
    gram = (X.T @ X) / N
    rhs = (X.T @ y) / N
    lip = 2.0 * float(np.linalg.eigvalsh(gram)[-1])
    step = 1.0 / max(lip, 1e-12)
    theta = np.zeros(X.shape[1])
    for _ in range(iterations):
        grad = 2.0 * (gram @ theta - rhs)
        theta_new = np.sign(theta - step * grad) * np.maximum(
            np.abs(theta - step * grad) - step * lam, 0.0
        )
        if float(np.max(np.abs(theta_new - theta))) < tol:
            theta = theta_new
            break
        theta = theta_new
    return LinearPredictor(theta)


# ---------------------------------------------------------------------------
# witness-pool audit
# ---------------------------------------------------------------------------

class _WitnessPoolAudit:
    """phi_lambda_hat under a fixed-witness budget: max over a pool of g's
    of the median block increment plus the regularization gap.

    Pool members share the same blocks, so comparing two nearby candidates
    against the pool cancels the common block noise; extending the pool
    with the best candidates themselves (a round-robin of MOM matches)
    sharpens the selection further.  The pool is held as its block losses
    and norms; candidates are audited from theirs.
    """

    def __init__(self, pool_losses, pool_psi, lam):
        self.pool_losses = pool_losses
        self.pool_psi = pool_psi
        self.lam = lam
        self.mid = pool_losses.shape[1] // 2

    def extend(self, losses, psis) -> None:
        self.pool_losses = np.concatenate([self.pool_losses, losses], axis=0)
        self.pool_psi = np.concatenate([self.pool_psi, psis])

    def value_from_losses(self, losses, psis) -> np.ndarray:
        """Audited value of each row of a (k, n) block-loss matrix, whose
        thetas have the norms psis."""
        pool_size, n = self.pool_losses.shape
        out = np.empty(losses.shape[0])
        rows = max(1, _AUDIT_BATCH_ENTRIES // (pool_size * n))
        for lo in range(0, losses.shape[0], rows):
            hi = min(lo + rows, losses.shape[0])
            diffs = losses[lo:hi, None, :] - self.pool_losses
            diffs.partition(self.mid, axis=2)
            meds = diffs[:, :, self.mid]
            if self.lam:
                meds = meds + self.lam * (psis[lo:hi, None] - self.pool_psi)
            out[lo:hi] = meds.max(axis=1)
        return out

    def self_values(self) -> np.ndarray:
        """Audited value of every pool member against the whole pool, as
        value_from_losses of the pool's own losses and norms.

        The term of g against f is exactly minus the term of f against g:
        n is odd and round-to-nearest is odd-symmetric, so the median of
        the differences and the lam (psi_f - psi_g) term both change sign
        and nothing else.  So each unordered pair's median is taken once:
        rows lo..hi are audited against members lo.., under the same
        temporary budget, and their negated terms fill the columns.
        """
        pool_size, n = self.pool_losses.shape
        out = np.full(pool_size, -np.inf)
        lo = 0
        while lo < pool_size:
            hi = min(pool_size, lo + max(1, _AUDIT_BATCH_ENTRIES // ((pool_size - lo) * n)))
            diffs = self.pool_losses[lo:hi, None, :] - self.pool_losses[lo:]
            diffs.partition(self.mid, axis=2)
            meds = diffs[:, :, self.mid]
            if self.lam:
                meds = meds + self.lam * (self.pool_psi[lo:hi, None] - self.pool_psi[lo:])
            np.maximum(out[lo:hi], meds.max(axis=1), out=out[lo:hi])
            np.maximum(out[lo:], -meds.min(axis=0), out=out[lo:])
            lo = hi
        # A negated zero term is -0.0 where the full audit has +0.0.
        return out + 0.0

    def screen(self, losses, psi) -> "_WitnessPoolAudit":
        """Sub-audit of the _REFINE_SCREEN witnesses with the largest terms
        at one theta, given its block losses and norm."""
        meds = np.partition(losses - self.pool_losses, self.mid, axis=1)[:, self.mid]
        if self.lam:
            meds = meds + self.lam * (psi - self.pool_psi)
        top = np.argpartition(-meds, _REFINE_SCREEN - 1)[:_REFINE_SCREEN]
        return _WitnessPoolAudit(self.pool_losses[top], self.pool_psi[top], self.lam)


def _pattern_refine(audit, reg, S, b, theta0, losses0, value0, scales, eval_cap):
    """Coordinate sweeps on the audited value, one step scale at a time.

    Move 2i of a sweep is theta + scale e_i and move 2i + 1 is
    theta - scale e_i.  A sweep takes the first move that lowers the value
    and goes on from the moved point at coordinate i + 1.  The block losses
    of theta + s e_i are loss_j + 2 s (S_j theta - b_j)_i + s^2 (S_j)_ii,
    and the sweep's next _REFINE_BATCH moves are audited together: first
    against the screen of ``_WitnessPoolAudit.screen`` at the current
    theta, then, only for the moves the screen puts below the current
    value, against the full pool.  Both audits take the same witness
    medians, so the screen rejects only moves the full audit would reject,
    and the moves taken and ``evals`` are those of the unscreened sweep.
    """
    theta = theta0.copy()
    losses = losses0
    value = value0
    d = theta.shape[0]
    coords = np.repeat(np.arange(d), 2)
    signs = np.tile([1.0, -1.0], d)[:, None]
    curv = np.diagonal(S, axis1=1, axis2=2).T[coords]
    grad = (S @ theta - b).T[coords]
    screen = audit.screen(losses, psi(reg, theta))
    for scale in scales:
        steps = signs * scale
        quad = steps * steps * curv
        evals = 0
        improved = True
        while improved and evals < eval_cap * d:
            improved = False
            lo = 0
            while lo < 2 * d:
                hi = min(lo + _REFINE_BATCH, 2 * d)
                cand_losses = losses + 2.0 * steps[lo:hi] * grad[lo:hi] + quad[lo:hi]
                cands = np.repeat(theta[None, :], hi - lo, axis=0)
                cands[np.arange(hi - lo), coords[lo:hi]] += steps[lo:hi, 0]
                psis = psi_batch(reg, cands)
                values = np.full(hi - lo, math.inf)
                live = np.flatnonzero(screen.value_from_losses(cand_losses, psis) < value)
                if live.size:
                    values[live] = audit.value_from_losses(cand_losses[live], psis[live])
                better = np.flatnonzero(values < value)
                if better.size == 0:
                    evals += hi - lo
                    lo = hi
                    continue
                k = int(better[0])
                evals += k + 1
                theta = cands[k]
                losses = cand_losses[k]
                value = float(values[k])
                grad = (S @ theta - b).T[coords]
                screen = audit.screen(losses, float(psis[k]))
                improved = True
                lo = 2 * (int(coords[lo + k]) + 1)
    return theta, value


# ---------------------------------------------------------------------------
# median-block descent-ascent
# ---------------------------------------------------------------------------

# Overflow is expected here and caught: a non-finite increment or iterate
# raises DivergenceError.
@np.errstate(over="ignore", invalid="ignore")
def _descent_ascent(S, b, starts, reg, lam, step_f, step_g, iterations, warm):
    """Run every restart (a row of starts) for the given iterations, in
    lockstep.  Returns the (2, restarts, iterations + 1, d) iterates, f
    first and g second with the starts at iteration 0, and the adversary's
    (restarts, iterations) median blocks and median increments.
    """
    R, d = starts.shape
    iterates = np.empty((2, R, iterations + 1, d))
    iterates[:, :, 0] = starts
    median_block = np.empty((R, iterations), dtype=np.intp)
    med_increment = np.empty((R, iterations))
    f = g = starts
    for t in range(1, iterations + 1):
        damp = 1.0 if t <= warm else math.sqrt(t - warm)
        inc = row_increments(S, b, f, g)
        if not np.isfinite(inc).all():
            raise DivergenceError(
                "block increments became non-finite; reduce step_f/step_g"
            )
        j_adv, med = median_block_index(inc)
        g = prox_gradient_step(reg, S, b, g, j_adv, step_g / damp, lam)
        j_lrn, _ = median_block_index(row_increments(S, b, f, g))
        f = prox_gradient_step(reg, S, b, f, j_lrn, step_f / damp, lam)
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            raise DivergenceError(
                "iterate became non-finite; reduce step_f/step_g"
            )
        iterates[0, :, t] = f
        iterates[1, :, t] = g
        median_block[:, t - 1] = j_adv
        med_increment[:, t - 1] = med
    return iterates, median_block, med_increment


def mom_minimax_fit(
    data: Dataset,
    p: BlockPartition,
    obj: ObjectiveConfig = ObjectiveConfig(),
    cfg: SolverConfig = SolverConfig(),
) -> SolverResult:
    """Fit the (regularized) median-of-means minimax estimator.

    Each iteration: find the median block of the current increment vector,
    take an adversary gradient step for g on that block's squared loss,
    re-locate the median block, take a learner step for f, and apply the
    proximal shrinkage of the regularizer to both when lambda > 0.
    Restarts begin at the least-squares fit, at zero, and at seeded
    perturbations of either, scaled by a median residual.  All restarts
    advance in lockstep, as the rows of (restarts, d) arrays, through the
    median-block prox-gradient step the adversary ascent also takes; see
    ``_descent_ascent``.  Every iterate is then audited against a witness
    pool, and the audited minimizer is refined by ``_pattern_refine``.
    """
    X, y = covered_rows(data, p)
    n, m = p.n, p.m
    d = data.dim
    lam = obj.lam
    reg = obj.regularizer
    S, b = _kernels.block_stats(X, y, n, m)

    ols = erm_fit(data).theta
    auto_step = gram_step_size(X, m)
    step_f = cfg.step_f if cfg.step_f is not None else auto_step
    step_g = cfg.step_g if cfg.step_g is not None else auto_step
    rng = np.random.default_rng(cfg.seed)
    # Robust perturbation scale: corrupted responses can make the plain RMS
    # residual astronomically large, so take the smaller of the two medians.
    resid2 = np.square(y - X @ ols)
    scale = math.sqrt(min(float(np.median(resid2)), float(np.median(np.square(y)))))
    warm = cfg.iterations // 3 if cfg.decay else cfg.iterations
    R, T = cfg.restarts, cfg.iterations

    starts = np.empty((R, d))
    for k in range(R):
        if k == 0:
            starts[k] = ols
        elif k == 1:
            starts[k] = 0.0
        else:
            base = ols if k % 2 else np.zeros(d)
            starts[k] = base + scale * rng.standard_normal(d) / math.sqrt(d)
    iterates, median_block, med_increment = _descent_ascent(
        S, b, starts, reg, lam, step_f, step_g, T, warm
    )
    step_norms = np.linalg.norm(np.diff(iterates, axis=2), axis=3)
    trace = Trace(median_block, med_increment, step_norms[0], step_norms[1])

    # Candidates, restart by restart: every iterate of f, then the mean of
    # the second half of the run.
    F, G = iterates
    cands = np.empty((R, T + 2, d))
    cands[:, : T + 1] = F
    cands[:, T + 1] = F[:, T // 2 + 1 :].mean(axis=1)
    cands = cands.reshape(-1, d)

    extra = [
        ols + scale * rng.standard_normal(d) / math.sqrt(d)
        for _ in range(_AUDIT_EXTRA_WITNESSES)
    ]
    pool = np.vstack([ols, F[:, T], G[:, T], *extra])
    thetas = np.concatenate([pool, cands])
    losses = _kernels.block_losses(X, y, thetas, n, m)
    psis = psi_batch(reg, thetas)
    audit = _WitnessPoolAudit(losses[: len(pool)], psis[: len(pool)], lam)
    cand_losses = losses[len(pool) :]
    cand_psi = psis[len(pool) :]

    prelim = audit.value_from_losses(cand_losses, cand_psi)
    # Round-robin stage: admit the most promising candidates as witnesses,
    # then re-audit; pairwise matches cancel shared block noise.
    top = np.argsort(prelim, kind="stable")[:_AUDIT_TOURNAMENT_SIZE]
    audit.extend(cand_losses[top], cand_psi[top])
    final = audit.value_from_losses(cand_losses[top], cand_psi[top])
    pick = int(np.argmin(final))
    best_idx = int(top[pick])
    best_restart = best_idx // (T + 2)
    best_theta = cands[best_idx]

    scale = max(1.0, float(np.max(np.abs(best_theta))))
    best_theta, best_value = _pattern_refine(
        audit,
        reg,
        S,
        b,
        best_theta,
        cand_losses[best_idx],
        float(final[pick]),
        tuple(s * scale for s in _REFINE_SCALES),
        _REFINE_EVAL_CAP,
    )

    return SolverResult(
        theta_hat=best_theta,
        trace=trace,
        converged=bool(trace.step_norm_f[best_restart, -1] < cfg.tolerance),
        best_surrogate=best_value,
    )


# ---------------------------------------------------------------------------
# brute-force grid oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Per-dimension (lo, hi, step) axes of a rectangular coefficient grid."""

    axes: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        for lo, hi, step in self.axes:
            if step <= 0.0:
                raise ConfigError("grid step must be positive")
            if lo > hi:
                raise ConfigError("grid lo must not exceed hi")

    def points(self) -> np.ndarray:
        """Grid points in lexicographic (row-major) order, shape (G, d)."""
        axes_pts = [
            np.arange(lo, hi + 0.5 * step, step) for lo, hi, step in self.axes
        ]
        grids = np.meshgrid(*axes_pts, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class OracleFit:
    theta_hat: np.ndarray
    objective: np.ndarray
    grid_f: np.ndarray

    @property
    def predictor(self) -> LinearPredictor:
        return LinearPredictor(self.theta_hat)


def oracle_grid_fit(
    data: Dataset,
    p: BlockPartition,
    obj: ObjectiveConfig,
    grid_f: GridSpec,
    grid_g: GridSpec,
    cap: int = 10**8,
) -> OracleFit:
    """Exact minimax argmin over finite grids; ties go to the smallest theta.

    The cap bounds |grid_f| * |grid_g| * n, the number of median-increment
    entries evaluated; the default 1e8 is practical for d <= 2.  When the
    two grids are equal, each unordered pair's median is taken once
    (``_WitnessPoolAudit.self_values``), with the same objective.
    """
    pts_f = grid_f.points()
    pts_g = grid_g.points()
    if pts_f.shape[1] != data.dim or pts_g.shape[1] != data.dim:
        raise DimensionError("grid dimension does not match data")
    if pts_f.shape[0] * pts_g.shape[0] * p.n > cap:
        raise GridCapExceeded(
            f"{pts_f.shape[0]} x {pts_g.shape[0]} grid over {p.n} blocks "
            f"exceeds cap {cap}"
        )
    X, y = covered_rows(data, p)
    n, m = p.n, p.m

    losses_f = _kernels.block_losses(X, y, pts_f, n, m)
    psi_f = psi_batch(obj.regularizer, pts_f)
    # The grid of g's is a witness pool: the audit's value is the objective.
    if pts_f.shape == pts_g.shape and np.array_equal(pts_f, pts_g):
        objective = _WitnessPoolAudit(losses_f, psi_f, obj.lam).self_values()
    else:
        audit = _WitnessPoolAudit(
            _kernels.block_losses(X, y, pts_g, n, m), psi_batch(obj.regularizer, pts_g), obj.lam
        )
        objective = audit.value_from_losses(losses_f, psi_f)

    best = int(np.argmin(objective))  # row-major order = lexicographic tie-break
    return OracleFit(theta_hat=pts_f[best].copy(), objective=objective, grid_f=pts_f)
