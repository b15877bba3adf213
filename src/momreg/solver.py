"""Fitting procedures: median-block descent-ascent, grid oracle, baselines.

``mom_minimax_fit`` chains five stages: ``_setup`` (covered rows, block
statistics, least-squares fit and step, shared with ``phi_lambda_hat``),
``_fit_starts``, ``_descent_ascent``, ``_select`` and ``_pattern_refine``.
Its ``default_rng(cfg.seed)`` draws one ``standard_normal(d)`` per restart
after the second, for the starts, then _AUDIT_EXTRA_WITNESSES for the pool.
The descent-ascent scheme has no monotonicity guarantee, so the returned
coefficient vector is not the last iterate: every iterate of every restart
is audited with a witness-pool surrogate of the regularized minimax value
and the minimizer of the audited value is returned.  ``_select`` runs that
audit as a small tournament (``_tournament``) that plays only the matches
that can change its pick: a bound on each candidate's value against two
pool members rules most candidates out of the full audit, and the seats'
round-robin plays each pair once, the reverse match being its mirror.
One screen rule picks the members a bound is taken against, in the
tournament and in ``_pattern_refine``: those of largest term at one theta.
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
    gram_step_size,
    median_block_index,
    prox_gradient_step,
    prox_psi,
    psi,
    psi_batch,
)

_AUDIT_EXTRA_WITNESSES = 3
_AUDIT_TOURNAMENT_SIZE = 64
# _tournament bounds each candidate's value by its terms against the
# _AUDIT_BOUND_MEMBERS pool members of largest term at the last candidate
# (``_WitnessPoolAudit.screen``).  With 4 the median tournament took 1.38
# against 1.32 ms per fit at d=5 and 1.35 against 1.20 ms at d=50.
_AUDIT_BOUND_MEMBERS = 2
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
    only their differences: where d <= m, from S and b less each block's
    constant y_j^T y_j / m, one ``row_slices`` slice at a time; where
    d > m, from the residuals, which cost less there."""
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    k, d = thetas.shape
    if d > p.m:
        return _kernels.block_losses(X, y, thetas, p.n, p.m)
    out = np.empty((k, p.n))
    for rows in row_slices(k, p.n * d):
        out[rows] = _kernels.stats_block_losses(S, b, thetas[rows])
    return out


class _WitnessPoolAudit:
    """phi_lambda_hat under a fixed-witness budget: max over a pool of g's
    of the median block increment plus the regularization gap.

    Pool members share the same blocks, so comparing two nearby candidates
    against the pool cancels the common block noise; extending the pool
    with the best candidates themselves sharpens the selection further.
    There the seats play a round-robin of MOM matches, in which
    ``_tournament`` plays each pair once (``_match_table``).  The pool is
    held as its block losses and norms; candidates are audited from
    theirs, against every member by value_from_losses, against the few
    members of largest term at one theta (``screen``) first to bound their
    values in ``_tournament`` and to screen moves in _pattern_refine, or by
    two-level branch and bound by grid_values.
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
                span = slice(k * _GRID_CLUSTER, (k + 1) * _GRID_CLUSTER)
                sub = self.members(span)
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


def _match_terms(losses, psis, lam, a, b):
    """The terms of the matches of thetas a against thetas b, index arrays
    into the rows of losses (k, n) and psis (k,), as ``terms`` takes them."""
    meds = middle(losses[a] - losses[b])
    return meds + lam * (psis[a] - psis[b]) if lam else meds


def _match_table(losses, psis, lam):
    """The (k, k) terms of the matches among k thetas, row a holding a's
    terms, from one match per pair a <= b: the bits of
    ``_WitnessPoolAudit(losses, psis, lam).terms(losses, psis)`` wherever a
    term is a number, and NaN exactly where it is NaN (NaN + NaN keeps
    either operand's sign, so no layout promises that sign; the round reads
    only that a final is NaN, and audits it again).  term(b, a) is 0.0 -
    term(a, b): x - y is -(y - x) bit for bit, so the differences, their
    middle and the norm gap all change sign.  That fails where a difference
    is NaN, which sorts last either way, and where term(a, b) is zero,
    whose sign need not change, so the pairs with a non-finite loss or a
    zero term are also played as (b, a).  Each slice of pairs holds its
    two gathered loss rows and their difference within ``TEMP_ENTRIES``."""
    k, n = losses.shape
    finite = np.isfinite(losses).all(axis=1)
    table = np.empty((k, k))
    a, b = np.triu_indices(k)
    for rows in row_slices(a.size, 3 * n):
        i, j = a[rows], b[rows]
        terms = _match_terms(losses, psis, lam, i, j)
        table[j, i] = 0.0 - terms
        table[i, j] = terms  # the diagonal keeps its own term
        odd = np.flatnonzero((i != j) & ((terms == 0.0) | ~(finite[i] & finite[j])))
        table[j[odd], i[odd]] = _match_terms(losses, psis, lam, j[odd], i[odd])
    return table


def _tournament(audit, losses, psis):
    """The fit's tournament among candidates with block losses losses (k, n)
    and norms psis: the _AUDIT_TOURNAMENT_SIZE of least audited value take
    seats, in stable order, and join the pool, and a seat's final value is
    its audited value against the extended pool.  Returns the seats and
    their final values, bit for bit those of ``value_from_losses`` on every
    candidate and then on the seats, from only the matches that can change
    them:

    - Every candidate is first audited against the _AUDIT_BOUND_MEMBERS
      members of largest term at the last candidate (``screen``), a lower
      bound on its value.  As many candidates as there are seats, those of
      least bound, have exact values at most their maximum M, so a
      candidate whose bound is above M takes no seat (a NaN bound or M
      keeps it), and only the others are audited against the whole pool.
      Any members give such a bound, so they change no seat and no value.
    - A seat's final value is the larger of its audited value and its row
      of the seats' ``_match_table``.  Where that is zero or NaN, whose bits
      depend on the order of the maximum, the seat is audited again.
    """
    size = _AUDIT_TOURNAMENT_SIZE
    k = losses.shape[0]
    near = audit.screen(audit.terms(losses[-1], psis[-1]), _AUDIT_BOUND_MEMBERS)
    bound = near.value_from_losses(losses, psis)
    first = np.argpartition(bound, min(size, k) - 1)[:size]
    value = np.empty(k)
    value[first] = audit.value_from_losses(losses[first], psis[first])
    live = ~(bound > value[first].max())
    cands = np.flatnonzero(live)
    live[first] = False
    more = np.flatnonzero(live)
    value[more] = audit.value_from_losses(losses[more], psis[more])
    top = cands[np.argsort(value[cands], kind="stable")[:size]]
    audit.extend(losses[top], psis[top])
    final = np.maximum(value[top], _match_table(losses[top], psis[top], audit.lam).max(axis=1))
    redo = np.flatnonzero(np.isnan(final) | (final == 0.0))
    final[redo] = audit.value_from_losses(losses[top[redo]], psis[top[redo]])
    return top, final


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
    The moves of a sweep after its last accepted one were all rejected at
    the point it ends at, so a next sweep that takes no move before them
    ends the scale there without auditing them again.
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
        evals = 0
        improved = True
        stop = 2 * d
        while improved and evals < eval_cap * d:
            improved = False
            lo, end = 0, stop
            while lo < end:
                hi = min(lo + _REFINE_BATCH, end)
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
                near = audit.screen(meds[j], _REFINE_SCREEN)
                improved = True
                lo = stop = 2 * (int(coords[lo + k]) + 1)
                end = 2 * d
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
    The increments take one ``_kernels.block_increment`` call per row,
    although ``_kernels.block_increments`` gives the same bits in one call:
    the benchmark's trace test pins one kernel call per row and half step,
    and one row through the stacked call is slower (16.0 against 11.1 us at
    d=5, 40.0 against 36.5 us at d=50; n=51, best of 7 x 2000 calls, one
    BLAS thread on a 2-vCPU VM).
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
        for f_row, g_row, row in zip(f_rows, g_rows, inc):
            _kernels.block_increment(S, b, f_row, g_row, out=row)
        # Finite entries have a finite sum, unless it overflows.
        if not math.isfinite(inc.sum()) and not np.isfinite(inc).all():
            raise DivergenceError(
                "block increments became non-finite; reduce step_f/step_g"
            )
        j_adv, med = median_block_index(inc, scratch)
        median_block[:, t - 1] = j_adv
        med_increment[:, t - 1] = med  # before the learner's call rewrites scratch
        prox_gradient_step(reg, S, b, g, j_adv, step_g / damp, lam, g_next)
        for f_row, g_row, row in zip(f_rows, g_next_rows, inc):
            _kernels.block_increment(S, b, f_row, g_row, out=row)
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


def _select(X, y, S, b, p, obj, iterates, ols, scale, rng):
    """Audit the candidates of a run: every iterate of f and the mean of
    the second half of the run, restart by restart.  The pool holds the
    least-squares fit, the last f and g of every restart and perturbations
    of the least-squares fit; the best prelim candidates then join it and
    are re-audited, as pairwise matches cancel shared block noise.
    ``_tournament`` computes those two audits' seats and values bit for
    bit, from a bounded prelim audit and a match table that plays each
    pair of seats once.  The block losses of pool and candidates come from
    one ``_audit_losses`` call, from S and b where d <= m (less each
    block's y_j^T y_j / m, which cancels in every term), from X and y where
    d > m.  Returns the audit and the winner's candidate index, theta,
    losses and value.
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
    audit, best, theta, losses, value = _select(X, y, S, b, p, obj, iterates, ols, scale, rng)
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

    best = int(np.argmin(objective))  # row-major order = lexicographic tie-break
    return OracleFit(theta_hat=pts_f[best].copy(), objective=objective, grid_f=pts_f)
