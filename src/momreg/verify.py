"""Numerical verifiers for the block conditions and the theorem chains.

Two kinds of check live here.  Monte Carlo checkers (the two block
conditions, the end-to-end theorem diagnostics, the sampled Delta
estimate) report fractions and make no uniform claim: a finite probe set
under-verifies a for-all statement.  Deterministic checkers
(lemma_reg_check and the super-linearity cases) assert implications that
hold in exact arithmetic whenever their hypotheses hold numerically, so
any violation beyond float roundoff indicates an arithmetic bug.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import block_increments, middle, multiplier_components
from .datagen import NoiseSpec, generate
from .errors import (
    ConfigError,
    DimensionError,
    HypothesisViolated,
    InvalidInput,
    ProbeOutOfRegime,
)
from .model import (
    BlockPartition,
    Dataset,
    DesignSpec,
    LinearPredictor,
    make_partition,
    population_sq_norms,
)
from .objective import (
    ConditionParams,
    Regularizer,
    _theta_of,
    lambda_window,
    psi,
    psi_batch,
    slope_weights_for,
)

REGIME_FAR = "far"
REGIME_SPHERE_NEAR = "sphere_near"
REGIME_SCALED = "scaled"

_FLOAT_SLACK = 1e-9
_SPHERE_RTOL = 1e-6


def excess_risk(theta_hat, theta_star, design: DesignSpec) -> float:
    """Sigma-weighted squared parameter error; equals the excess prediction
    risk in the well-specified synthetic model."""
    th = _theta_of(theta_hat)
    ts = _theta_of(theta_star)
    if th.shape != ts.shape:
        raise DimensionError(f"shape mismatch {th.shape} vs {ts.shape}")
    if th.shape[0] != design.dim:
        raise DimensionError("design dimension mismatch")
    delta = th - ts
    return max(float(delta @ design.covariance @ delta), 0.0)


def sample_sphere_probes(
    f_star: LinearPredictor,
    design: DesignSpec,
    distance: float,
    count: int,
    rng,
) -> np.ndarray:
    """The (count, d) stack of probe thetas at an exact L2(mu) distance from
    f_star, via design-whitened directions.

    Row i is bitwise the probe solved and normed alone from the i-th of
    count draws of ``rng.standard_normal(d)``, and rng ends in that state.
    """
    if distance < 0.0:
        raise ConfigError("distance must be nonnegative")
    V = rng.standard_normal((count, design.dim))
    W = np.linalg.solve(design.cholesky.T[None], V[:, :, None])[:, :, 0]
    return f_star.theta + distance * W / np.sqrt(np.vecdot(V, V))[:, None]


class _Record:
    """A report record: a dataclass whose to_dict maps each field, in field
    order, to its value, with arrays as lists."""

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


# ---------------------------------------------------------------------------
# framed block conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport(_Record):
    """Per-probe block fractions for one of the two framed conditions."""

    condition: str
    distances: np.ndarray
    fractions: np.ndarray
    median_stats: np.ndarray
    threshold: float
    per_probe_pass: np.ndarray
    passed: bool


def _probe_geometry(probes, f_star: LinearPredictor, design: DesignSpec):
    """The (k, d) stack of the probe thetas, their offsets from f_star and
    their exact L2(mu) distances to it.

    Each distance is bitwise ``population_l2_distance``.
    """
    d = f_star.dim
    if d != design.dim:
        raise DimensionError(f"predictor dim {d} vs design dim {design.dim}")
    try:
        thetas = np.array(probes, dtype=np.float64) if len(probes) else np.empty((0, d))
    except ValueError as exc:  # a ragged sequence
        raise DimensionError(f"probes must be a (k, {d}) stack of thetas") from exc
    if thetas.ndim != 2 or thetas.shape[1] != d:
        raise DimensionError(f"probes must be a (k, {d}) stack of thetas, got {thetas.shape}")
    if not np.isfinite(thetas).all():
        raise InvalidInput("coefficients must be finite")
    deltas = thetas - f_star.theta
    q = population_sq_norms(deltas, design)
    return thetas, deltas, np.sqrt(np.where(q < 0.0, 0.0, q))


def _condition_report(condition, dists, stats, hits, fraction_threshold) -> ConditionReport:
    """The report of one condition from the (probes, blocks) statistics and
    the mask of blocks that satisfy it; partitions stats in place."""
    fractions = np.count_nonzero(hits, axis=1) / stats.shape[1]
    per_pass = fractions >= fraction_threshold
    return ConditionReport(
        condition=condition,
        distances=dists,
        fractions=fractions,
        median_stats=middle(stats),
        threshold=fraction_threshold,
        per_probe_pass=per_pass,
        passed=bool(np.all(per_pass)),
    )


def check_condition_one(
    data: Dataset,
    p: BlockPartition,
    f_star: LinearPredictor,
    probes,
    gamma1: float,
    r: float,
    design: DesignSpec,
    fraction_threshold: float = 0.9,
) -> ConditionReport:
    """Far regime: fraction of blocks with increment >= gamma1 * distance^2.

    Each row of probes, a (k, d) stack of thetas, must lie at L2 distance
    >= r from f_star.  The block increments of all probes come from one
    stacked residual pass, and the per-probe fractions and medians are row-wise.
    """
    thetas, _, dists = _probe_geometry(probes, f_star, design)
    # roundoff allowance for exact-sphere probes
    inside = np.flatnonzero(dists < r * (1.0 - 1e-9))
    if inside.size:
        raise ProbeOutOfRegime(f"probe at distance {float(dists[inside[0]])} < r = {r}")
    incs = block_increments(thetas, f_star, data, p)
    return _condition_report(
        "increment_lower", dists, incs, incs >= (gamma1 * dists * dists)[:, None],
        fraction_threshold,
    )


def check_condition_two(
    data: Dataset,
    p: BlockPartition,
    f_star: LinearPredictor,
    probes,
    gamma2: float,
    r: float,
    design: DesignSpec,
    fraction_threshold: float = 0.9,
) -> ConditionReport:
    """Near regime: fraction of blocks with |multiplier| <= gamma2 * r^2,
    the expected multiplier being 0 in the well-specified model.

    Each row of probes, a (k, d) stack of thetas, must lie at L2 distance
    < r.  The multipliers of all probes come from one stacked residual
    pass, and the per-probe fractions and medians are taken row-wise.
    """
    thetas, _, dists = _probe_geometry(probes, f_star, design)
    # roundoff allowance, mirror of condition one
    outside = np.flatnonzero(dists >= r * (1.0 + 1e-9))
    if outside.size:
        raise ProbeOutOfRegime(f"probe at distance {float(dists[outside[0]])} >= r = {r}")
    dev = np.abs(multiplier_components(thetas, f_star, data, p))
    return _condition_report(
        "multiplier_band", dists, dev, dev <= gamma2 * r * r, fraction_threshold
    )


# ---------------------------------------------------------------------------
# theorem diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem1Diagnostic(_Record):
    distance: float
    distance_ok: bool
    excess: float
    excess_bound: float
    excess_ok: bool
    passed: bool
    conditions_passed: bool | None


def theorem1_check(
    theta_hat,
    theta_star,
    design: DesignSpec,
    params: ConditionParams,
    condition_reports=None,
) -> Theorem1Diagnostic:
    """Check distance <= r and excess risk <= (1 + 2 gamma2) r^2.

    Requires gamma1 > gamma2.  A FAIL is meaningful only when both block
    condition reports passed (conditions_passed is None when not supplied).
    """
    if params.gamma1 <= params.gamma2:
        raise HypothesisViolated(
            f"need gamma1 > gamma2, got {params.gamma1} <= {params.gamma2}"
        )
    excess = excess_risk(theta_hat, theta_star, design)
    dist = math.sqrt(excess)
    bound = (1.0 + 2.0 * params.gamma2) * params.r * params.r
    distance_ok = dist <= params.r
    excess_ok = excess <= bound
    conditions_passed = None
    if condition_reports is not None:
        conditions_passed = all(rep.passed for rep in condition_reports)
    return Theorem1Diagnostic(
        distance=dist,
        distance_ok=distance_ok,
        excess=excess,
        excess_bound=bound,
        excess_ok=excess_ok,
        passed=distance_ok and excess_ok,
        conditions_passed=conditions_passed,
    )


@dataclass(frozen=True)
class Theorem2Diagnostic(_Record):
    psi_error: float
    psi_bound: float
    psi_ok: bool
    distance: float
    distance_bound: float
    distance_ok: bool
    excess: float
    excess_bound: float
    excess_ok: bool
    passed: bool


def theorem2_check(
    theta_hat,
    theta_star,
    design: DesignSpec,
    params: ConditionParams,
    reg: Regularizer,
    c1: float = 10.0,
    c2: float = 10.0,
    c3: float = 10.0,
) -> Theorem2Diagnostic:
    """Regularized chain: Psi error <= c1 rho, distance <= c2 r, excess <= c3 r^2.

    No config key sets the slack constants c1-c3; the source material leaves
    them unquantified.  Assumes theta_hat was fit with lambda inside the window.
    """
    th = _theta_of(theta_hat)
    ts = _theta_of(theta_star)
    psi_error = psi(reg, th - ts)
    excess = excess_risk(th, ts, design)
    dist = math.sqrt(excess)
    psi_bound = c1 * params.rho
    dist_bound = c2 * params.r
    excess_bound = c3 * params.r * params.r
    psi_ok = psi_error <= psi_bound
    distance_ok = dist <= dist_bound
    excess_ok = excess <= excess_bound
    return Theorem2Diagnostic(
        psi_error=psi_error,
        psi_bound=psi_bound,
        psi_ok=psi_ok,
        distance=dist,
        distance_bound=dist_bound,
        distance_ok=distance_ok,
        excess=excess,
        excess_bound=excess_bound,
        excess_ok=excess_ok,
        passed=psi_ok and distance_ok and excess_ok,
    )


def support_recovery_error(theta_hat, theta_star, atol: float = 0.1) -> int:
    """Symmetric difference between the thresholded estimated support and
    the true support."""
    th = _theta_of(theta_hat)
    ts = _theta_of(theta_star)
    return int(np.count_nonzero((np.abs(th) > atol) != (ts != 0.0)))


# ---------------------------------------------------------------------------
# deterministic lemma implications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaProbe:
    """A probe h (and scale alpha for the super-linearity case) with its
    hypothesis regime annotation and the analytic expected multiplier."""

    theta: np.ndarray
    regime: str
    alpha: float = 1.0
    expected_multiplier: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "theta", np.asarray(self.theta, dtype=np.float64)
        )
        if self.regime not in (REGIME_FAR, REGIME_SPHERE_NEAR, REGIME_SCALED):
            raise ConfigError(f"unknown lemma regime {self.regime!r}")
        if self.regime == REGIME_SCALED and self.alpha <= 1.0:
            raise ConfigError("scaled regime needs alpha > 1")


@dataclass(frozen=True)
class LemmaViolation:
    """A failed conclusion at one (probe, block) pair of one instance of
    ``lemma_sweep``; probes and instances are numbered from 0."""

    probe_index: int
    block_index: int
    conclusion: str
    lhs: float
    rhs: float
    instance: int = 0


_CONCLUSIONS = ("far", "sphere_near", "scaled_far", "scaled_near")


@dataclass
class LemmaCheckReport:
    """Violations and, per conclusion (each of _CONCLUSIONS from 0), the
    (probe, block) pairs checked and skipped."""

    violations: list[LemmaViolation] = field(default_factory=list)
    checked: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_CONCLUSIONS, 0))
    skipped: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_CONCLUSIONS, 0))

    def merge(self, other: "LemmaCheckReport") -> None:
        self.violations.extend(other.violations)
        for key, val in other.checked.items():
            self.checked[key] = self.checked.get(key, 0) + val
        for key, val in other.skipped.items():
            self.skipped[key] = self.skipped.get(key, 0) + val

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())


def _check_blocks(report, idx, conclusion, hypothesis, lhs, rhs) -> None:
    """Check lhs >= rhs on the (probe, block) pairs where the hypothesis
    mask holds; count the others as skipped and append violations in
    probe-then-block order.

    hypothesis and lhs are (probes, blocks) arrays with one probe index in
    idx, one conclusion name and one rhs per row.
    """
    for name, count in zip(conclusion, hypothesis.sum(axis=1).tolist()):
        report.checked[name] += count
        report.skipped[name] += hypothesis.shape[1] - count
    # lhs < rhs - slack implies lhs < rhs, so pairs with lhs >= rhs pass.
    rows, blocks = np.nonzero(hypothesis & (lhs < rhs[:, None]))
    if not rows.size:
        return
    lhs = lhs[rows, blocks]
    rhs = rhs[rows]
    slack = _FLOAT_SLACK * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    for i in np.flatnonzero(lhs < rhs - slack).tolist():
        report.violations.append(
            LemmaViolation(
                int(idx[rows[i]]), int(blocks[i]), conclusion[rows[i]], lhs[i], float(rhs[i])
            )
        )


def lemma_reg_check(
    probes,
    f_star: LinearPredictor,
    data: Dataset,
    p: BlockPartition,
    params: ConditionParams,
    lam: float,
    reg: Regularizer,
    design: DesignSpec,
) -> LemmaCheckReport:
    """Verify the per-block regularization implications on every (probe,
    block) pair whose hypothesis inequalities hold numerically.

    Conclusions checked, per regime:
      far:          increment + lam*(psi(h)-psi(f*)) >= (g1/2) dist^2
      sphere_near:  increment + lam*(psi(h)-psi(f*)) >= (g2/2) r^2
      scaled:       with f = f* + alpha (h - f*), the same left side at f is
                    >= alpha (g1/2) dist^2 (far branch) or >= alpha g2 r^2
                    (near branch): super-linear growth.

    The block increments against f* of the distinct probe thetas and of
    the scaled thetas f come from one stacked residual pass of ``blocks``
    (one row per theta, bitwise the one-theta statistic), and the
    multipliers of the distinct probe thetas from another; probes that
    share h (the scaled probes of one direction, and the near probe with
    its scaled copies) share their rows.  Distances and psi are taken for
    all probes at once.  Each conclusion is checked as a (probe, block)
    mask, with violations reported in probe-then-block order.

    lam must lie in the admissible window.  Violations beyond float
    roundoff indicate an arithmetic bug, not sampling noise.
    """
    lo, hi = lambda_window(params)
    if not (lo <= lam <= hi):
        raise ConfigError(f"lambda {lam} outside window [{lo}, {hi}]")
    g1, g2, r, rho = params.gamma1, params.gamma2, params.r, params.rho
    r2 = r * r
    report = LemmaCheckReport()
    probes = list(probes)
    k = len(probes)
    thetas, deltas, dists = _probe_geometry([probe.theta for probe in probes], f_star, design)
    # One psi call for f*, the probes and their offsets, bitwise row by row.
    norms = psi_batch(reg, np.concatenate([f_star.theta[None], thetas, deltas])).tolist()
    psi_star, psi_h, psi_delta = norms[0], norms[1 : k + 1], norms[k + 1 :]
    if not probes:
        return report
    on_sphere = [abs(pd - rho) <= _SPHERE_RTOL * rho for pd in psi_delta]

    # Statistics rows: one per distinct probe theta, then one per scaled
    # probe on the psi-sphere, at f = f* + alpha (h - f*); scaled probes
    # off the sphere are skipped without forming f.
    seen = {}
    row = [seen.setdefault(theta.tobytes(), len(seen)) for theta in thetas]
    firsts = [row.index(j) for j in range(len(seen))]
    at_f = [i for i, probe in enumerate(probes) if probe.regime == REGIME_SCALED and on_sphere[i]]
    alpha = np.array([probes[i].alpha for i in at_f], dtype=np.float64)
    f_scaled = f_star.theta + alpha[:, None] * deltas[at_f]
    if not np.isfinite(f_scaled).all():
        raise InvalidInput("coefficients must be finite")
    distinct = thetas[firsts]
    incs = block_increments(np.concatenate([distinct, f_scaled]), f_star, data, p)
    b_h = incs[row]
    m_h = multiplier_components(distinct, f_star, data, p)[row]
    # The left side's increment and norm: at f for those scaled probes, at h
    # for the others.
    lhs_row, psi_lhs = list(row), list(psi_h)
    for j, (i, psi_f) in enumerate(zip(at_f, psi_batch(reg, f_scaled).tolist())):
        lhs_row[i], psi_lhs[i] = len(firsts) + j, psi_f

    # Per probe: its conclusion, whether the hypothesis gates of its regime
    # hold, whether its block hypothesis is the far or the near one, and the
    # right side of its conclusion.  A block meets the far hypothesis when
    # b_h >= far_lo, the near one when |m_h - em| <= near_hi; nan, for the
    # side not taken or a failed gate, is met by no block.
    conclusion, terms = [], []
    for i, (probe, dist) in enumerate(zip(probes, dists.tolist())):
        em = probe.expected_multiplier
        if probe.regime == REGIME_FAR:
            gate = not (psi_delta[i] > rho or dist < r)
            case = ("far", gate, True, 0.5 * g1 * dist * dist)
        elif probe.regime == REGIME_SPHERE_NEAR:
            norming_ok = psi_h[i] - psi_star >= 0.7 * rho
            gate = on_sphere[i] and dist < r and em >= 0.0 and norming_ok
            case = ("sphere_near", gate, False, 0.5 * g2 * r2)
        elif not on_sphere[i] or dist >= r:
            case = ("scaled_far", on_sphere[i], True, probe.alpha * 0.5 * g1 * dist * dist)
        else:
            norming_ok = psi_lhs[i] - psi_star >= (0.8 * probe.alpha - 0.1) * rho
            case = ("scaled_near", em >= 0.0 and norming_ok, False, probe.alpha * g2 * r2)
        name, gate, far, rhs = case
        conclusion.append(name)
        far_lo = g1 * dist * dist if gate and far else math.nan
        near_hi = g2 * r2 if gate and not far else math.nan
        terms.append((lam * (psi_lhs[i] - psi_star), far_lo, near_hi, em, rhs))
    lam_terms, far_lo, near_hi, expected, rhs = np.array(terms).T

    lhs = incs[lhs_row] + lam_terms[:, None]
    hypothesis = (b_h >= far_lo[:, None]) | (np.abs(m_h - expected[:, None]) <= near_hi[:, None])
    _check_blocks(report, range(k), conclusion, hypothesis, lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# norming functionals and the sampled Delta diagnostic
# ---------------------------------------------------------------------------

def norming_functional(reg: Regularizer, v: np.ndarray, direction=None) -> np.ndarray:
    """A unit-dual-norm functional z with z(v) = psi(v), chosen among the
    norming functionals of v to maximize z(direction).

    v and direction broadcast against each other over their leading axes;
    the last axis holds the coordinates, and each vector of the result is
    the functional of one (v, direction) pair.  One-dimensional v and
    direction give one functional.
    """
    v = np.asarray(v, dtype=np.float64)
    if direction is None:
        direction = np.zeros_like(v)
    direction = np.asarray(direction, dtype=np.float64)
    free_sign = np.where(direction != 0.0, np.sign(direction), 1.0)
    signs = np.where(v != 0.0, np.sign(v), free_sign)
    if reg.kind == "l1":
        return signs
    if reg.kind == "slope":
        weights = slope_weights_for(reg, signs.shape[-1])
        # Contribution of coordinate i if it receives weight w: signs[i] *
        # direction[i] * w; within |v| ties any weight assignment is norming,
        # so order ties by contribution (rearrangement maximizes the sum).
        contrib = signs * direction
        order = np.lexsort((-contrib, np.broadcast_to(-np.abs(v), signs.shape)), axis=-1)
        z = np.empty(signs.shape)
        np.put_along_axis(
            z, order, weights * np.take_along_axis(signs, order, axis=-1), axis=-1
        )
        return z
    raise ConfigError("norming functionals exist for l1 and slope only")


@dataclass(frozen=True)
class DeltaEstimate(_Record):
    """Sampled estimate of the norming-functional separation quantity.

    value is the minimum over sampled (f, h) pairs of the best z(h - f)
    over sampled norming functionals; an estimate of an inf-inf-sup with
    no one-sided guarantee.  value is None when no feasible h was found.
    """

    value: float | None
    feasible: bool
    n_centers: int
    n_feasible: int
    n_candidates: int
    rho: float
    r: float


def _psi_unit(reg: Regularizer, u: np.ndarray) -> np.ndarray | None:
    scale = psi(reg, u)
    if scale <= 0.0:
        return None
    return u / scale


def _delta_directions(d: int, budget: int, rng) -> list[np.ndarray]:
    dirs: list[np.ndarray] = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    while len(dirs) < 2 * d + budget:
        sparsity = int(rng.integers(1, d + 1))
        support = rng.choice(d, size=sparsity, replace=False)
        u = np.zeros(d)
        u[support] = rng.standard_normal(sparsity)
        if np.any(u != 0.0):
            dirs.append(u)
    return dirs


def estimate_delta(
    reg: Regularizer,
    f_star: LinearPredictor,
    rho: float,
    r: float,
    design: DesignSpec,
    budget: int = 200,
    seed: int = 0,
    n_centers: int = 8,
    n_norming: int = 24,
) -> DeltaEstimate:
    """Sample the inf-inf-sup separation estimate around f_star.

    Candidate h live on the psi-sphere of radius rho with L2 distance at
    most r; the sup runs over norming functionals of sampled v in the
    rho/20 ball (always including v = f, and v = 0 when psi(f) <= rho/20).
    The candidate steps h - f do not depend on the center f, so they are
    normalised and filtered once; for each center and each v, one
    broadcast ``norming_functional`` call covers every step.
    """
    if reg.kind not in ("l1", "slope"):
        raise ConfigError("estimate_delta needs an l1 or slope regularizer")
    if rho <= 0.0:
        return DeltaEstimate(None, False, 0, 0, 0, rho, r)
    d = design.dim
    rng = np.random.default_rng(seed)

    # Centers stay well inside the rho/20 norming ball around f_star: the
    # hypothesis consumes norming functionals of that ball, and a center
    # drifting outside it loses the sign freedom the bound relies on.
    centers = [f_star.theta.copy()]
    for _ in range(n_centers - 1):
        u = _psi_unit(reg, rng.standard_normal(d))
        if u is not None:
            centers.append(f_star.theta + (rho / 40.0) * rng.uniform(0.0, 1.0) * u)

    directions = np.array(_delta_directions(d, budget, rng))
    v_offsets = []
    for _ in range(n_norming):
        u = _psi_unit(reg, rng.standard_normal(d))
        if u is not None:
            v_offsets.append((rho / 20.0) * rng.uniform(0.0, 1.0) * u)

    steps = rho * (directions / psi_batch(reg, directions)[:, None])
    q = population_sq_norms(steps, design)
    steps = steps[~(np.sqrt(np.maximum(q, 0.0)) > r * (1 + 1e-12))]
    if steps.shape[0] == 0:
        return DeltaEstimate(
            None, False, len(centers), 0, len(directions), rho, r
        )

    best = math.inf
    for f in centers:
        vs = [f] + [f + off for off in v_offsets]
        if psi(reg, f) <= rho / 20.0:
            vs.append(np.zeros(d))
        sup = np.full(steps.shape[0], -math.inf)
        for v in vs:
            # vecdot, not einsum: it rounds like z @ delta, row by row.  fmax
            # lets no NaN (from overflowing inputs) into the sup.
            np.fmax(sup, np.vecdot(norming_functional(reg, v, steps), steps), out=sup)
        best = min(best, float(sup.min()))
    return DeltaEstimate(
        best, True, len(centers), len(centers) * steps.shape[0], len(directions), rho, r
    )


# ---------------------------------------------------------------------------
# randomized lemma sweep (hypothesis-satisfying instance generator)
# ---------------------------------------------------------------------------

# Populations of the draws with replacement of random_lemma_instance.
_SIGNS = np.array([-1.0, 1.0])
_BLOCK_COUNTS = np.array([5, 7, 9, 11])
_L1 = Regularizer.l1()


def _pick(rng, a: np.ndarray, size=None):
    """``rng.choice(a, size)`` with replacement from the 1-d array a, draw for
    draw, without choice's Python argument handling."""
    return a[rng.integers(0, a.shape[0], size=size)]


def _sparse_f_star(rng, d: int, support: int) -> np.ndarray:
    theta = np.zeros(d)
    idx = rng.choice(d, size=support, replace=False)
    theta[idx] = rng.uniform(0.5, 2.0, size=support) * _pick(rng, _SIGNS, support)
    return theta


# DesignSpec and Regularizer are immutable, so one per dimension (8 to 24)
# serves every instance.
@functools.cache
def _identity_design(d: int) -> DesignSpec:
    return DesignSpec.identity(d)


@functools.cache
def _slope_regularizer(d: int) -> Regularizer:
    return Regularizer.slope(d=d)


def random_lemma_instance(rng, slope_fraction: float = 0.25):
    """One randomized dataset + parameter draw + probe battery.

    Probes are constructed so the hypothesis gates mostly pass: far probes
    sit on one coordinate (psi-sphere touching the far regime), near probes
    spread over coordinates off the support of f_star with positive signs,
    and scaled probes take alpha in {2, 4, 8} over both branches.

    The order of the draws from rng is part of the ``momreg verify`` report
    contract.  Draws with replacement go through ``_pick``, which makes
    ``Generator.choice``'s draws; the probe norms are exact (w1 of a signed
    one-hot vector, k of a 0/1 vector with k ones), so psi is not called.
    """
    d = int(rng.integers(8, 25))
    s = int(rng.integers(1, 4))
    f_star_theta = _sparse_f_star(rng, d, s)
    f_star = LinearPredictor(f_star_theta)
    design = _identity_design(d)

    use_slope = rng.uniform() < slope_fraction
    reg = _slope_regularizer(d) if use_slope else _L1
    w1 = float(reg.weights[0]) if use_slope else 1.0

    gamma1 = float(rng.uniform(0.4, 0.9))
    gamma2 = float(rng.uniform(0.2, 1.0)) * gamma1 / 6.0
    r = float(rng.uniform(0.3, 1.0))
    rho = float(rng.uniform(1.05, 3.0)) * r * w1
    params = ConditionParams(gamma1=gamma1, gamma2=gamma2, r=r, rho=rho)
    lo, hi = lambda_window(params)
    lam = hi if rng.uniform() < 0.1 else float(rng.uniform(lo, hi))

    n = int(_pick(rng, _BLOCK_COUNTS))
    m = int(rng.integers(8, 31))
    noise = NoiseSpec("gaussian", scale=float(rng.uniform(0.01, 0.3)) * r)
    data = generate(n * m, d, f_star_theta, design, noise, rng.integers(2**63))
    partition = make_partition(n * m, n)

    free = (f_star_theta == 0.0).nonzero()[0]
    probes: list[LemmaProbe] = []

    # A probe is f* + rho u / psi(u), set in place: f* is 0 on the support of
    # u, and adding the zeros elsewhere would change no bit.
    def one_hot_probe():
        # 1-sparse on the psi-sphere, L2 distance rho / w1 >= r
        h = f_star_theta.copy()
        k = int(_pick(rng, free))
        h[k] = rho * _pick(rng, _SIGNS) / w1
        return h

    for _ in range(2):
        probes.append(LemmaProbe(one_hot_probe(), REGIME_FAR))

    # near probes (l1 only): positive mass spread off-support so the norm
    # gap psi(h) - psi(f*) equals rho exactly
    if not use_slope:
        k_needed = max(int(math.ceil((rho / r) ** 2 * 1.3)) + 1, 2)
        k_spread = min(len(free), k_needed)
        if k_spread >= 2 and rho / math.sqrt(k_spread) < r:
            h = f_star_theta.copy()
            h[rng.choice(free, size=k_spread, replace=False)] = rho / float(k_spread)
            probes.append(LemmaProbe(h, REGIME_SPHERE_NEAR))
            probes.extend(LemmaProbe(h, REGIME_SCALED, alpha=a) for a in (2.0, 4.0, 8.0))

    # scaled far branch
    h = one_hot_probe()
    probes.extend(LemmaProbe(h, REGIME_SCALED, alpha=a) for a in (2.0, 4.0, 8.0))

    return probes, f_star, data, partition, params, lam, reg, design


def lemma_sweep(count: int, seed: int = 0, slope_fraction: float = 0.25) -> LemmaCheckReport:
    """Run lemma_reg_check over `count` randomized hypothesis-satisfying
    instances, numbered from 0, and aggregate the violation report.  The
    draw order of ``random_lemma_instance`` (through ``_pick``, not
    ``Generator.choice``) is part of the ``momreg verify`` report contract."""
    rng = np.random.default_rng(seed)
    total = LemmaCheckReport()
    for i in range(count):
        report = lemma_reg_check(*random_lemma_instance(rng, slope_fraction))
        report.violations = [dataclasses.replace(v, instance=i) for v in report.violations]
        total.merge(report)
    return total
