"""Fitting procedures: median-block descent-ascent, grid oracle, baselines.

``mom_minimax_fit`` chains five stages: ``_setup`` (covered rows, block
statistics, least-squares fit and step, shared with ``phi_lambda_hat``),
``_fit_starts``, ``_descent_ascent``, ``_select`` and ``_pattern_refine``.
Its ``default_rng(cfg.seed)`` draws one ``standard_normal(d)`` per restart
after the second, for the starts, then _AUDIT_EXTRA_WITNESSES for the pool.
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
from .blocks import middle, row_slices
from .errors import DimensionError, DivergenceError, GridCapExceeded
from .model import (BlockPartition, Dataset, LinearPredictor, _check_count, _check_number,
                    covered_rows)
from .objective import (
    ObjectiveConfig,
    Regularizer,
    gram_step_size,
    median_block_index,
    prox_gradient_step,
    prox_psi,
    psi,
    psi_batch,
    row_increments,
)

_AUDIT_EXTRA_WITNESSES = 3
_AUDIT_TOURNAMENT_SIZE = 64
_REFINE_SCALES = (0.05, 0.02, 0.01, 0.005, 0.002)
_REFINE_EVAL_CAP = 60
# Moves of a refine sweep audited in one batch.  Moves after the first
# improving one are wasted, but every batch pays the same fixed numpy calls
# (the losses, the screen, the candidate norms when lam > 0); the moves
# taken and ``evals`` do not depend on the batch.  Going from 8 to 16 took
# the median refine time per fit from 6.95 to 6.50 ms at d=5 and from 26.1
# to 23.1 ms at d=50 (the benchmark's frozen trials, one BLAS thread, 2 vCPUs).
_REFINE_BATCH = 16
# Witnesses a refine batch is screened against before the full audit: those
# with the largest of the current theta's full-pool terms.  The screened
# value is a maximum over fewer witnesses, so a move it does not put below
# the current value cannot improve on the full pool either.
_REFINE_SCREEN = 4
# _WitnessPoolAudit.grid_values cuts the pool, in order, into leaves of
# _GRID_CLUSTER consecutive members and the leaves into groups of _GRID_GROUP
# consecutive leaves, the last leaf and group padded with their last member
# or leaf.  An envelope, the blockwise least loss and least norm of a leaf's
# members or of a group's leaf envelopes, has a term at least each of
# theirs, as every step of a term is monotone in floating point.
_GRID_CLUSTER = 16
_GRID_GROUP = 4
_L1 = Regularizer.l1()  # lasso_fit's soft-thresholding is its prox


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
        for name in ("step_f", "step_g"):
            if getattr(self, name) is not None:
                _check_number(name, getattr(self, name))
        _check_count("iterations", self.iterations, 1)
        _check_count("restarts", self.restarts, 1)
        _check_number("tolerance", self.tolerance)
        _check_count("seed", self.seed)


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

    A singular Gram matrix, or a solve that comes out non-finite, gets a
    ridge jitter of 1e-10 instead; a ridge solve that is still non-finite
    raises InvalidInput.
    """
    X = data.features
    gram = X.T @ X
    rhs = X.T @ data.responses
    try:
        theta = np.linalg.solve(gram, rhs)
        if np.isfinite(theta).all():
            return LinearPredictor(theta)
    except np.linalg.LinAlgError:
        pass
    return LinearPredictor(np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), rhs))


def lasso_fit(
    data: Dataset, lam: float, iterations: int = 1000, tol: float = 1e-10
) -> LinearPredictor:
    """Plain l1-penalized least squares (ISTA on the mean squared loss)."""
    _check_count("iterations", iterations)
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
        theta_new = prox_psi(_L1, theta - step * grad, step * lam)
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
    and norms; candidates are audited from theirs, against every member by
    value_from_losses or, in _pattern_refine, by the terms of the moves its
    screen lets through, or by two-level branch and bound by grid_values.
    """

    def __init__(self, pool_losses, pool_psi, lam):
        self.pool_losses = pool_losses
        self.pool_psi = pool_psi
        self.lam = lam

    def extend(self, losses, psis) -> None:
        self.pool_losses = np.concatenate([self.pool_losses, losses], axis=0)
        self.pool_psi = np.concatenate([self.pool_psi, psis])

    def terms(self, losses, psis) -> np.ndarray:
        """Audit terms of the thetas with block losses losses (..., n) and
        norms psis (...) against the pool, or against a pool per theta: the
        median block increment plus lam (psi - psi_g), shape (..., pool)."""
        meds = middle(losses[..., None, :] - self.pool_losses)
        if self.lam:
            meds = meds + self.lam * (np.asarray(psis)[..., None] - self.pool_psi)
        return meds

    def value_from_losses(self, losses, psis) -> np.ndarray:
        """Audited value of each row of a (k, n) block-loss matrix, whose
        thetas have the norms psis."""
        out = np.empty(losses.shape[0])
        for rows in row_slices(losses.shape[0], self.pool_losses.size):
            out[rows] = self.terms(losses[rows], psis[rows]).max(axis=1)
        return out

    def envelope(self, width):
        """Index (clusters, width) of consecutive members; their envelopes."""
        size = self.pool_psi.size
        index = np.minimum(np.arange(0, size, width)[:, None] + np.arange(width), size - 1)
        least = self.pool_losses[index].min(axis=1), self.pool_psi[index].min(axis=1)
        return index, _WitnessPoolAudit(*least, self.lam)

    def grid_values(self, losses, psis) -> np.ndarray:
        """value_from_losses, bit for bit, by a two-level branch and bound:
        each candidate's terms against every group envelope, the leaf
        envelopes of its group of largest bound, the members of its leaf of
        largest bound, then those of every other leaf whose bound is not
        below its best term, in that group or in a group whose bound is not
        below it.  A NaN term (inf - inf) has a NaN or +inf bound, never below."""
        _, leaf = self.envelope(_GRID_CLUSTER)
        groups, group = leaf.envelope(_GRID_GROUP)

        def leaf_terms(rows, at):
            out = np.empty((rows.size, _GRID_GROUP))
            for part in row_slices(rows.size, _GRID_GROUP * losses.shape[1]):
                sel = groups[at[part]]
                sub = _WitnessPoolAudit(leaf.pool_losses[sel], leaf.pool_psi[sel], self.lam)
                out[part] = sub.terms(losses[rows[part]], psis[rows[part]])
            return out

        def leaf_max(rows, leaves):
            out = np.empty(rows.size)
            for k in np.unique(leaves):
                at = np.flatnonzero(leaves == k)
                span = slice(k * _GRID_CLUSTER, (k + 1) * _GRID_CLUSTER)
                sub = _WitnessPoolAudit(self.pool_losses[span], self.pool_psi[span], self.lam)
                for part in row_slices(at.size, _GRID_CLUSTER * losses.shape[1]):
                    own = rows[at[part]]
                    out[at[part]] = sub.terms(losses[own], psis[own]).max(axis=1)
            return out

        cands = np.arange(losses.shape[0])
        group_bounds = np.concatenate([
            group.terms(losses[rows], psis[rows])
            for rows in row_slices(cands.size, group.pool_losses.size)
        ])
        first_group = np.argmax(group_bounds, axis=1)
        near = leaf_terms(cands, first_group)
        first = groups[first_group, np.argmax(near, axis=1)]
        best = leaf_max(cands, first)
        live = ~(group_bounds < best[:, None])
        live[cands, first_group] = False
        far, far_groups = np.nonzero(live)
        rows, at = np.concatenate([cands, far]), np.concatenate([first_group, far_groups])
        leaf_bounds = np.concatenate([near, leaf_terms(far, far_groups)])
        live = ~(leaf_bounds < best[rows, None]) & (groups[at] != first[rows, None])
        pairs, cols = np.nonzero(live)
        np.maximum.at(best, rows[pairs], leaf_max(rows[pairs], groups[at[pairs], cols]))
        return best


def _pattern_refine(audit, reg, S, b, theta0, losses0, value0, scales, eval_cap):
    """Coordinate sweeps on the audited value, one step scale at a time.

    Move 2i of a sweep is theta + scale e_i and move 2i + 1 is
    theta - scale e_i.  A sweep takes the first move that lowers the value
    and goes on from the moved point at coordinate i + 1.  The block losses
    of theta + s e_i are loss_j + 2 s (S_j theta - b_j)_i + s^2 (S_j)_ii,
    and the sweep's next _REFINE_BATCH moves are audited together: first by
    the ``terms`` of a sub-audit of the _REFINE_SCREEN witnesses of largest
    term at the current theta, then, for the moves it puts below the current
    value, by those of the full pool, slice by slice up to an improving move.
    Both take the same terms, so the screen rejects only moves the full
    audit would reject: the moves and ``evals`` are the unscreened sweep's.
    The next screen comes from the accepted move's own full-pool terms.
    With lam = 0 the terms never read the norms and no candidate stack is built.
    """

    def screen(meds):
        top = np.argpartition(-meds, _REFINE_SCREEN - 1)[:_REFINE_SCREEN]
        return _WitnessPoolAudit(audit.pool_losses[top], audit.pool_psi[top], audit.lam)

    theta, losses, value = theta0.copy(), losses0, value0
    d = theta.shape[0]
    coords = np.repeat(np.arange(d), 2)
    signs = np.tile([1.0, -1.0], d)[:, None]
    curv = np.diagonal(S, axis1=1, axis2=2).T[coords]
    grad = (S @ theta - b).T[coords]
    near = screen(audit.terms(losses, psi(reg, theta)))
    psis = np.zeros(_REFINE_BATCH)  # read by the terms only when lam > 0
    for scale in scales:
        steps = signs * scale
        quad = steps * steps * curv
        lin = 2.0 * steps * grad
        evals = 0
        improved = True
        while improved and evals < eval_cap * d:
            improved = False
            lo = 0
            while lo < 2 * d:
                hi = min(lo + _REFINE_BATCH, 2 * d)
                cand_losses = losses + lin[lo:hi] + quad[lo:hi]
                if audit.lam:
                    cands = np.repeat(theta[None, :], hi - lo, axis=0)
                    cands[np.arange(hi - lo), coords[lo:hi]] += steps[lo:hi, 0]
                    psis = psi_batch(reg, cands)
                live = np.flatnonzero(near.terms(cand_losses, psis).max(axis=1) < value)
                for rows in row_slices(live.size, audit.pool_losses.size):
                    at = live[rows]
                    meds = audit.terms(cand_losses[at], psis[at])
                    values = meds.max(axis=1)
                    better = np.flatnonzero(values < value)
                    if better.size:
                        break
                else:
                    evals += hi - lo
                    lo = hi
                    continue
                j, k = int(better[0]), int(at[better[0]])
                evals += k + 1
                theta[coords[lo + k]] += steps[lo + k, 0]
                losses = cand_losses[k]
                value = float(values[j])
                grad = (S @ theta - b).T[coords]
                lin = 2.0 * steps * grad
                near = screen(meds[j])
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

    Each half step writes into buffers allocated once: the increments into
    one (restarts, n) array, f and g into one of two (2, restarts, d)
    arrays that swap after each iteration, whose rows are listed once.
    """
    R, d = starts.shape
    iterates = np.empty((2, R, iterations + 1, d))
    iterates[:, :, 0] = starts
    median_block = np.empty((R, iterations), dtype=np.intp)
    med_increment = np.empty((R, iterations))
    inc = np.empty((R, b.shape[0]))
    scratch = np.empty_like(inc)
    # Per buffer: the (2, R, d) pair, f, g, and the row lists of f and g.
    states = [(pair, *pair, *map(list, pair)) for pair in np.array([[starts, starts]] * 2)]
    for t in range(1, iterations + 1):
        damp = 1.0 if t <= warm else math.sqrt(t - warm)
        (_, f, g, f_rows, g_rows), (new, f_next, g_next, _, g_next_rows) = states
        row_increments(S, b, f_rows, g_rows, inc)
        # Finite entries have a finite sum, unless it overflows.
        if not math.isfinite(inc.sum()) and not np.isfinite(inc).all():
            raise DivergenceError(
                "block increments became non-finite; reduce step_f/step_g"
            )
        j_adv, med = median_block_index(inc, scratch)
        median_block[:, t - 1] = j_adv
        med_increment[:, t - 1] = med  # before the learner's call rewrites scratch
        prox_gradient_step(reg, S, b, g, j_adv, step_g / damp, lam, g_next)
        j_lrn, _ = median_block_index(row_increments(S, b, f_rows, g_next_rows, inc), scratch)
        prox_gradient_step(reg, S, b, f, j_lrn, step_f / damp, lam, f_next)
        if not math.isfinite(new.sum()) and not np.isfinite(new).all():
            raise DivergenceError(
                "iterate became non-finite; reduce step_f/step_g"
            )
        iterates[:, :, t] = new
        states.reverse()
    return iterates, median_block, med_increment


def _setup(data, p):
    """What a fit and its certificate ``phi_lambda_hat`` start from: the
    covered rows X and y, their block statistics S and b, the least-squares
    theta and the ``gram_step_size`` step."""
    X, y = covered_rows(data, p)
    S, b = _kernels.block_stats(X, y, p.n, p.m)
    return X, y, S, b, erm_fit(data).theta, gram_step_size(X, p.m)


def _fit_starts(cfg, X, y, ols, step, rng):
    """step_f, step_g, the iterations at constant steps, the perturbation
    scale and the (restarts, d) starts: the least-squares fit, zero, then
    perturbations of zero and of the least-squares fit in turn, one
    ``standard_normal(d)`` draw each."""
    step_f = cfg.step_f if cfg.step_f is not None else step
    step_g = cfg.step_g if cfg.step_g is not None else step
    # Robust perturbation scale: corrupted responses can make the plain RMS
    # residual astronomically large, so take the smaller of the two medians.
    resid2 = np.square(y - X @ ols)
    scale = math.sqrt(min(float(np.median(resid2)), float(np.median(np.square(y)))))
    warm = cfg.iterations // 3 if cfg.decay else cfg.iterations
    d = ols.shape[0]
    starts = np.empty((cfg.restarts, d))
    for k in range(cfg.restarts):
        if k == 0:
            starts[k] = ols
        elif k == 1:
            starts[k] = 0.0
        else:
            base = ols if k % 2 else np.zeros(d)
            starts[k] = base + scale * rng.standard_normal(d) / math.sqrt(d)
    return step_f, step_g, warm, scale, starts


def _select(X, y, p, obj, iterates, ols, scale, rng):
    """Audit the candidates of a run: every iterate of f and the mean of
    the second half of the run, restart by restart.  The pool holds the
    least-squares fit, the last f and g of every restart and perturbations
    of the least-squares fit; the best prelim candidates then join it and
    are re-audited, as pairwise matches cancel shared block noise.  Returns
    the audit and the winner's candidate index, theta, losses and value.
    """
    F, G = iterates
    R, T, d = F.shape[0], F.shape[1] - 1, F.shape[2]
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
    losses = _kernels.block_losses(X, y, thetas, p.n, p.m)
    psis = psi_batch(obj.regularizer, thetas)
    audit = _WitnessPoolAudit(losses[: len(pool)], psis[: len(pool)], obj.lam)
    cand_losses = losses[len(pool) :]
    cand_psi = psis[len(pool) :]

    prelim = audit.value_from_losses(cand_losses, cand_psi)
    top = np.argsort(prelim, kind="stable")[:_AUDIT_TOURNAMENT_SIZE]
    audit.extend(cand_losses[top], cand_psi[top])
    final = audit.value_from_losses(cand_losses[top], cand_psi[top])
    pick = int(np.argmin(final))
    best = int(top[pick])
    return audit, best, cands[best], cand_losses[best], float(final[pick])


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
    perturbations of either (``_fit_starts``) and advance in lockstep
    (``_descent_ascent``); every iterate is audited against a witness pool
    (``_select``) and the audited minimizer refined (``_pattern_refine``).
    The seed draws a start per restart after the second, then the witnesses.
    """
    X, y, S, b, ols, step = _setup(data, p)
    rng = np.random.default_rng(cfg.seed)
    step_f, step_g, warm, scale, starts = _fit_starts(cfg, X, y, ols, step, rng)
    iterates, median_block, med_increment = _descent_ascent(
        S, b, starts, obj.regularizer, obj.lam, step_f, step_g, cfg.iterations, warm
    )
    step_norms = np.linalg.norm(np.diff(iterates, axis=2), axis=3)
    trace = Trace(median_block, med_increment, step_norms[0], step_norms[1])
    audit, best, theta, losses, value = _select(X, y, p, obj, iterates, ols, scale, rng)
    size = max(1.0, float(np.max(np.abs(theta))))
    theta_hat, best_value = _pattern_refine(
        audit, obj.regularizer, S, b, theta, losses, value,
        tuple(s * size for s in _REFINE_SCALES), _REFINE_EVAL_CAP,
    )
    best_restart = best // (cfg.iterations + 2)
    return SolverResult(
        theta_hat=theta_hat,
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
            _check_number("grid step", step)
            _check_number("grid lo", lo, -math.inf)
            _check_number("grid hi", hi, lo, strict=False)

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

    The cap bounds |grid_f| * |grid_g| * n, an upper bound on the
    median-increment entries evaluated; the default 1e8 is practical for
    d <= 2.  ``_WitnessPoolAudit.grid_values`` bounds groups of 64 and
    leaves of 16 consecutive g's by their envelopes and skips those that
    cannot raise an entry, with the objective bits of the full table.
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
    same = np.array_equal(pts_f, pts_g)
    losses_g = losses_f if same else _kernels.block_losses(X, y, pts_g, n, m)
    psi_g = psi_f if same else psi_batch(obj.regularizer, pts_g)
    objective = _WitnessPoolAudit(losses_g, psi_g, obj.lam).grid_values(losses_f, psi_f)

    best = int(np.argmin(objective))  # row-major order = lexicographic tie-break
    return OracleFit(theta_hat=pts_f[best].copy(), objective=objective, grid_f=pts_f)
