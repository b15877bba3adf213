"""Fitting procedures: median-block descent-ascent, grid oracle, baselines.

``mom_minimax_fit`` chains five stages: ``_setup`` (covered rows, block
statistics, least-squares fit and step, shared with ``phi_lambda_hat``),
``_fit_starts``, ``_descent_ascent``, ``_select`` and ``_pattern_refine``.
Its seed draws only the starts after the second, one ``standard_normal(d)``
each, so at the default two restarts a fit draws nothing.
Where d <= m the descent-ascent takes its increments from the block
statistics; where d > m, the rule ``_audit_losses`` shares, from design
products X theta that it caches per restart (``_ProductIncrements``),
which cost N d per moved row against the statistics' n d^2 per increment.
The descent-ascent scheme has no monotonicity guarantee, so the returned
coefficient vector is not the last iterate: every iterate of every restart
is audited with a witness-pool surrogate of the regularized minimax value
and the minimizer of the audited value is returned.  ``_select`` runs that
audit as a small tournament (``_tournament``): every candidate is audited
against the pool, and the best then join it and are audited again.
``_pattern_refine`` screens its moves against the pool members of largest
term at the current theta before auditing them against the whole pool.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .blocks import middle, row_slices
from .errors import (ConfigError, DimensionError, DivergenceError, GridCapExceeded,
                     InvalidInput)
from .model import (BlockPartition, Dataset, LinearPredictor, _check_count, _check_number,
                    covered_rows)
from .objective import (
    ObjectiveConfig,
    Regularizer,
    _check_step_lambda,
    gram_step_size,
    median_block_index,
    prox_gradient_step,
    prox_psi,
    psi,
    psi_batch,
)

_AUDIT_TOURNAMENT_SIZE = 64
_REFINE_SCALES = (0.05, 0.02, 0.01, 0.005, 0.002)
_REFINE_EVAL_CAP = 60
# Moves of a refine scan audited in one batch.  Moves after the first
# improving one are wasted, but every batch pays the same fixed numpy calls
# (the losses, the screen, the candidate norms when lam > 0); the moves
# taken and ``evals`` do not depend on the batch.  Going from 8 to 16 took
# the median refine time per fit from 6.95 to 6.50 ms at d=5 and from 26.1
# to 23.1 ms at d=50 (the benchmark's frozen trials, one BLAS thread, 2 vCPUs).
_REFINE_BATCH = 16
# Witnesses a refine batch is screened against before the full audit: those
# with the largest of the current theta's full-pool terms.  The screened
# value is a maximum over fewer witnesses, so a move it does not put below
# the current value cannot improve on the full pool either.  With 2 the
# median d=50 refine took 14.9 against 13.1 ms per fit.
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
    then shrink like 1/sqrt(t).  seed draws only the starts of the
    restarts after the second, so at restarts <= 2 it changes nothing.
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
    the Euclidean lengths of the learner and adversary steps.  At d > m
    the increments come from design products, so med_increment agrees with
    the statistics form to roundoff, not bit for bit.
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
    ridge jitter of 1e-10 instead; a ridge solve that is still singular
    (the jitter vanishes beside a large Gram) or non-finite raises
    InvalidInput.
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
    try:
        theta = np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), rhs)
    except np.linalg.LinAlgError:
        raise InvalidInput(
            "the least-squares Gram matrix X^T X is singular, even with a 1e-10 ridge"
        ) from None
    return LinearPredictor(theta)


def lasso_fit(
    data: Dataset, lam: float, iterations: int = 1000, tol: float = 1e-10
) -> LinearPredictor:
    """Plain l1-penalized least squares (ISTA on the mean squared loss)."""
    _check_number("lam", lam, strict=False)
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

def _audit_losses(X, y, S, b, thetas, p):
    """Block losses of a (k, d) stack of thetas for the audits, which take
    only their differences.  Where d <= m, they come from S and b less each
    block's constant y_j^T y_j / m: theta^T S_j theta - 2 b_j^T theta, the
    increment of theta against the zero predictor, one ``row_slices`` slice
    at a time.  Where d > m, they come from the residuals, which cost less
    there."""
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    k, d = thetas.shape
    if d > p.m:
        return _kernels.block_losses(X, y, thetas, p.n, p.m)
    out = np.empty((k, p.n))
    for rows in row_slices(k, p.n * d):
        out[rows] = _kernels.block_increments(S, b, thetas[rows], 0.0)
    return out


class _WitnessPoolAudit:
    """phi_lambda_hat under a fixed-witness budget: max over a pool of g's
    of the median block increment plus the regularization gap.

    Pool members share the same blocks, so comparing two nearby candidates
    against the pool cancels the common block noise; extending the pool
    with the best candidates themselves sharpens the selection further:
    there the seats play a round-robin of MOM matches.  The pool is held
    as its block losses and norms; candidates are audited from theirs,
    against every member by value_from_losses, against the few members of
    largest term at one theta (``screen``) first to screen moves in
    _pattern_refine, or by two-level branch and bound by grid_values.
    """

    def __init__(self, pool_losses, pool_psi, lam):
        self.pool_losses = pool_losses
        self.pool_psi = pool_psi
        self.lam = lam

    def members(self, index) -> _WitnessPoolAudit:
        """The audit against the pool members selected by index."""
        return _WitnessPoolAudit(self.pool_losses[index], self.pool_psi[index], self.lam)

    def screen(self, meds, count) -> _WitnessPoolAudit:
        """The audit against the count members (all, in a smaller pool) of
        largest term in meds, one theta's ``terms``.  Its value is a
        maximum over fewer members, a lower bound on the full audit's."""
        return self.members(np.argpartition(-meds, min(count, meds.size) - 1)[:count])

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
                sub = leaf.members(groups[at[part]])
                out[part] = sub.terms(losses[rows[part]], psis[rows[part]])
            return out

        def leaf_max(rows, leaves):
            out = np.empty(rows.size)
            for k in np.unique(leaves):
                at = np.flatnonzero(leaves == k)
                own = rows[at]
                span = slice(k * _GRID_CLUSTER, (k + 1) * _GRID_CLUSTER)
                out[at] = self.members(span).value_from_losses(losses[own], psis[own])
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


def _tournament(audit, losses, psis):
    """The fit's tournament among candidates with block losses losses (k, n)
    and norms psis, as two witness-pool audits: the _AUDIT_TOURNAMENT_SIZE
    of least audited value take seats, in stable order, and join the pool,
    and a seat's final value is its audited value against the extended
    pool.  Returns the seats and their final values."""
    prelim = audit.value_from_losses(losses, psis)
    top = np.argsort(prelim, kind="stable")[:_AUDIT_TOURNAMENT_SIZE]
    audit.extend(losses[top], psis[top])
    return top, audit.value_from_losses(losses[top], psis[top])


def _pattern_refine(audit, reg, S, b, theta0, losses0, value0, scales, eval_cap):
    """A cyclic coordinate scan on the audited value, one step scale at a time.

    Move 2i is theta + scale e_i and move 2i + 1 is theta - scale e_i.  A
    scale scans the 2d moves cyclically from move 0, takes each move that
    lowers the value and goes on from the moved point at coordinate i + 1.
    The block losses of theta + s e_i are
    loss_j + 2 s (S_j theta - b_j)_i + s^2 (S_j)_ii, and the scan's next
    _REFINE_BATCH moves, up to move 2d - 1, are audited together: first by
    the ``terms`` of a sub-audit of the _REFINE_SCREEN witnesses of largest
    term at the current theta, then, for the moves it puts below the current
    value, by those of the full pool, slice by slice up to an improving move.
    Both take the same terms, so the screen rejects only moves the full
    audit would reject: the moves and ``evals`` are the unscreened scan's.
    The next screen comes from the accepted move's own full-pool terms.
    A scale ends after 2d consecutive rejected moves, or when the scan
    wraps to move 0 with at least eval_cap * d moves audited.
    With lam = 0 the terms never read the norms and no candidate stack is built.
    """
    theta, losses, value = theta0.copy(), losses0, value0
    d = theta.shape[0]
    coords = np.repeat(np.arange(d), 2)
    signs = np.tile([1.0, -1.0], d)[:, None]
    curv = np.diagonal(S, axis1=1, axis2=2).T[coords]
    grad = (S @ theta - b).T[coords]
    near = audit.screen(audit.terms(losses, psi(reg, theta)), _REFINE_SCREEN)
    psis = np.zeros(_REFINE_BATCH)  # read by the terms only when lam > 0
    for scale in scales:
        steps = signs * scale
        quad = steps * steps * curv
        lin = 2.0 * steps * grad
        evals, lo, left = 0, 0, 2 * d  # left: moves to reject before the scale ends
        while left and (lo or evals < eval_cap * d):
            hi = min(lo + _REFINE_BATCH, 2 * d, lo + left)
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
                    j, k = int(better[0]), int(at[better[0]])
                    evals += k + 1
                    theta[coords[lo + k]] += steps[lo + k, 0]
                    losses = cand_losses[k]
                    value = float(values[j])
                    grad = (S @ theta - b).T[coords]
                    lin = 2.0 * steps * grad
                    near = audit.screen(meds[j], _REFINE_SCREEN)
                    lo, left = 2 * (int(coords[lo + k]) + 1) % (2 * d), 2 * d
                    break
            else:
                evals += hi - lo
                left -= hi - lo
                lo = hi % (2 * d)
    return theta, value


# ---------------------------------------------------------------------------
# median-block descent-ascent
# ---------------------------------------------------------------------------

class _StatisticsIncrements:
    """The descent-ascent's increments from the block statistics S and b:
    one ``_kernels.block_increment`` call per restart, on row views listed
    once per buffer, each written into its row of the increments."""

    operand = list

    def __init__(self, S, b):
        self.S, self.b = S, b

    def __call__(self, f_rows, g_rows, fresh, out):
        S, b = self.S, self.b
        for f_row, g_row, row in zip(f_rows, g_rows, out):
            _kernels.block_increment(S, b, f_row, g_row, out=row)


class _ProductIncrements:
    """The descent-ascent's increments from design products, for d > m: per
    restart P_f = X f and P_g = X g over the covered rows X, cached, and
    ``_kernels.product_increments`` of the two.  A call first recomputes
    the products of the players in fresh (0 for f, 1 for g) by one
    stacked ``np.matmul(X, thetas[:, :, None])``, each row bitwise
    ``X @ theta``, so a restart does not depend on how many run beside it.
    A product costs N d operations per row, once per half step, where the
    statistics kernel costs n d^2 = N d^2 / m per row and increment."""

    def __init__(self, X, y, n, m):
        self.X, self.y2, self.n, self.m = X, 2.0 * y, n, m
        self.products = [None, None]

    @staticmethod
    def operand(thetas):
        return thetas

    def __call__(self, f, g, fresh, out):
        for player in fresh:
            thetas = (f, g)[player]
            self.products[player] = np.matmul(self.X, thetas[:, :, None])[:, :, 0]
        _kernels.product_increments(*self.products, self.y2, self.n, self.m, out)


# Overflow is expected here and caught: a non-finite increment or iterate
# raises DivergenceError.
@np.errstate(over="ignore", invalid="ignore")
def _descent_ascent(S, b, starts, reg, lam, step_f, step_g, iterations, warm, increments):
    """Run every restart (a row of starts) for the given iterations, in
    lockstep.  Returns the (2, restarts, iterations + 1, d) iterates, f
    first and g second with the starts at iteration 0, and the adversary's
    (restarts, iterations) median blocks and median increments.

    The increments come from the source ``mom_minimax_fit`` picks:
    ``_StatisticsIncrements(S, b)`` where d <= m, ``_ProductIncrements``
    where d > m, the rule of ``_audit_losses``.  The gradients always come
    from S and b, so the two sources give the same iterates wherever they
    pick the same median blocks, and their increments agree to roundoff.
    Each half step moves one player, whose iterates the source is told are
    fresh.

    The caller owns the buffers, here and in the adversary ascent: the
    increments and their partitioned copy go into two (restarts, n)
    arrays, f and g into one of two (2, restarts, d) arrays that swap
    after each iteration, listed once as the source's operands.  The
    statistics source makes one ``_kernels.block_increment`` call per row,
    although ``_kernels.block_increments`` gives the same bits in one
    call: the benchmark's trace test pins one kernel call per row and half
    step, and one row through the stacked call is slower (16.0 against
    11.1 us at d=5, 40.0 against 36.5 us at d=50; n=51, best of 7 x 2000
    calls, one BLAS thread on a 2-vCPU VM).
    """
    R, d = starts.shape
    iterates = np.empty((2, R, iterations + 1, d))
    iterates[:, :, 0] = starts
    median_block = np.empty((R, iterations), dtype=np.intp)
    med_increment = np.empty((R, iterations))
    inc = np.empty((R, b.shape[0]))
    scratch = np.empty_like(inc)
    # Per buffer: the (2, R, d) pair, f, g, and f and g as the source reads them.
    states = [
        (pair, *pair, *map(increments.operand, pair))
        for pair in np.array([[starts, starts]] * 2)
    ]
    fresh = (0, 1)  # the players whose iterates are new: both at the starts
    for t in range(1, iterations + 1):
        damp = 1.0 if t <= warm else math.sqrt(t - warm)
        (_, f, g, f_in, g_in), (new, f_next, g_next, _, g_next_in) = states
        increments(f_in, g_in, fresh, inc)
        # Finite entries have a finite sum, unless it overflows.
        if not math.isfinite(inc.sum()) and not np.isfinite(inc).all():
            raise DivergenceError(
                "block increments became non-finite; reduce step_f/step_g"
            )
        j_adv, med = median_block_index(inc, scratch)
        median_block[:, t - 1] = j_adv
        med_increment[:, t - 1] = med  # before the learner's call rewrites scratch
        prox_gradient_step(reg, S, b, g, j_adv, step_g / damp, lam, g_next)
        increments(f_in, g_next_in, (1,), inc)
        fresh = (0,)
        j_lrn, _ = median_block_index(inc, scratch)
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


def _fit_starts(cfg, X, y, ols, step):
    """step_f, step_g, the iterations at constant steps and the (restarts,
    d) starts: the least-squares fit, zero, then perturbations of zero and
    of the least-squares fit in turn, one ``standard_normal(d)`` draw each
    from ``default_rng(cfg.seed)``."""
    step_f = cfg.step_f if cfg.step_f is not None else step
    step_g = cfg.step_g if cfg.step_g is not None else step
    warm = cfg.iterations // 3 if cfg.decay else cfg.iterations
    d = ols.shape[0]
    starts = np.zeros((cfg.restarts, d))
    starts[0] = ols
    if cfg.restarts > 2:
        # Robust perturbation scale: corrupted responses can make the plain
        # RMS residual astronomically large, so take the smaller of the two
        # medians.
        resid2 = np.square(y - X @ ols)
        scale = math.sqrt(min(float(np.median(resid2)), float(np.median(np.square(y)))))
        rng = np.random.default_rng(cfg.seed)
        for k in range(2, cfg.restarts):
            base = ols if k % 2 else 0.0
            starts[k] = base + scale * rng.standard_normal(d) / math.sqrt(d)
    return step_f, step_g, warm, starts


def _select(X, y, S, b, p, obj, iterates, ols):
    """Audit the candidates of a run: every iterate of f and the mean of
    the second half of the run, restart by restart.  The pool holds the
    least-squares fit and the last f and g of every restart; the best
    prelim candidates then join it and are re-audited, as pairwise matches
    cancel shared block noise (``_tournament``).  The block losses of pool
    and candidates come from one ``_audit_losses`` call, from S and b where
    d <= m (less each block's y_j^T y_j / m, which cancels in every term),
    from X and y where d > m.  Returns the audit and the winner's candidate
    index, theta, losses and value.
    """
    F, G = iterates
    R, T, d = F.shape[0], F.shape[1] - 1, F.shape[2]
    cands = np.empty((R, T + 2, d))
    cands[:, : T + 1] = F
    cands[:, T + 1] = F[:, T // 2 + 1 :].mean(axis=1)
    cands = cands.reshape(-1, d)

    pool = np.vstack([ols, F[:, T], G[:, T]])
    thetas = np.concatenate([pool, cands])
    losses = _audit_losses(X, y, S, b, thetas, p)
    psis = psi_batch(obj.regularizer, thetas)
    audit = _WitnessPoolAudit(losses[: len(pool)], psis[: len(pool)], obj.lam)
    cand_losses = losses[len(pool) :]
    cand_psi = psis[len(pool) :]

    top, final = _tournament(audit, cand_losses, cand_psi)
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
    (``_descent_ascent``, on increments from the block statistics where
    d <= m and from cached design products where d > m); every iterate is
    audited against a witness pool (``_select``) and the audited minimizer
    refined (``_pattern_refine``).
    The seed draws only the starts after the second, so at restarts <= 2
    it does not change the fit.
    """
    X, y, S, b, ols, step = _setup(data, p)
    step_f, step_g, warm, starts = _fit_starts(cfg, X, y, ols, step)
    _check_step_lambda("step_f/step_g", max(step_f, step_g), obj.lam)
    # The rule of _audit_losses: at d > m a design product is the cheaper.
    if X.shape[1] > p.m:
        increments = _ProductIncrements(X, y, p.n, p.m)
    else:
        increments = _StatisticsIncrements(S, b)
    iterates, median_block, med_increment = _descent_ascent(
        S, b, starts, obj.regularizer, obj.lam, step_f, step_g, cfg.iterations, warm, increments
    )
    step_norms = np.linalg.norm(np.diff(iterates, axis=2), axis=3)
    trace = Trace(median_block, med_increment, step_norms[0], step_norms[1])
    audit, best, theta, losses, value = _select(X, y, S, b, p, obj, iterates, ols)
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
        try:
            axes = [(lo, hi, step) for lo, hi, step in self.axes]
        except (TypeError, ValueError):
            raise ConfigError(
                f"grid axes must be (lo, hi, step) triples, got {self.axes!r}"
            ) from None
        if not axes:
            raise ConfigError("a grid needs at least one axis")
        for lo, hi, step in axes:
            _check_number("grid step", step)
            _check_number("grid lo", lo, -math.inf)
            _check_number("grid hi", hi, lo, strict=False)
            if not math.isfinite((hi + 0.5 * step - lo) / step):
                raise ConfigError(f"grid axis {(lo, hi, step)!r} has too many points to count")

    def sizes(self) -> list[int]:
        """Points per axis, counted as ``np.arange`` in ``points`` counts
        them, without building them."""
        return [math.ceil((hi + 0.5 * step - lo) / step) for lo, hi, step in self.axes]

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


# Overflow is expected here and caught: an objective that is not finite
# raises InvalidInput.
@np.errstate(over="ignore", invalid="ignore")
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
    median-increment entries evaluated, and is checked on the axes' sizes
    before a point is built; the default 1e8 is practical for d <= 2.
    ``_WitnessPoolAudit.grid_values`` bounds groups of 64 and leaves of 16
    consecutive g's by their envelopes and skips those that cannot raise
    an entry, with the objective bits of the full table.  The
    block losses of both grids come from ``_audit_losses``: where d <= m
    they omit each block's y_j^T y_j / m, which cancels in the objective.
    """
    _check_count("cap", cap, 1)
    if len(grid_f.axes) != data.dim or len(grid_g.axes) != data.dim:
        raise DimensionError("grid dimension does not match data")
    size_f, size_g = math.prod(grid_f.sizes()), math.prod(grid_g.sizes())
    if size_f * size_g * p.n > cap:
        raise GridCapExceeded(f"{size_f} x {size_g} grid over {p.n} blocks exceeds cap {cap}")
    pts_f = grid_f.points()
    pts_g = grid_g.points()
    X, y = covered_rows(data, p)
    S, b = _kernels.block_stats(X, y, p.n, p.m)

    losses_f = _audit_losses(X, y, S, b, pts_f, p)
    psi_f = psi_batch(obj.regularizer, pts_f)
    # The grid of g's is a witness pool: the audit's value is the objective.
    same = np.array_equal(pts_f, pts_g)
    losses_g = losses_f if same else _audit_losses(X, y, S, b, pts_g, p)
    psi_g = psi_f if same else psi_batch(obj.regularizer, pts_g)
    objective = _WitnessPoolAudit(losses_g, psi_g, obj.lam).grid_values(losses_f, psi_f)
    if not np.isfinite(objective).all():
        raise InvalidInput("the grid objective overflows: it is not finite")

    best = int(np.argmin(objective))  # row-major order = lexicographic tie-break
    return OracleFit(theta_hat=pts_f[best].copy(), objective=objective, grid_f=pts_f)
