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

import collections
import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    TEMP_ENTRIES, _residual_pass, _used_arrays, block_increments, middle, multiplier_components,
)
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
_REGIMES = (REGIME_FAR, REGIME_SPHERE_NEAR, REGIME_SCALED)

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

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())


def _check_blocks(report, instance, probe, code, n, hypothesis, lhs, rhs) -> None:
    """Check lhs >= rhs where the (rows, blocks) hypothesis mask holds (it
    fails past a row's n blocks), count each row's other blocks as skipped,
    and append violations in row-then-block order; per row there is one
    instance, probe index, conclusion code (into _CONCLUSIONS), n and rhs."""
    counts = np.count_nonzero(hypothesis, axis=1)
    for j, name in enumerate(_CONCLUSIONS):
        report.checked[name] += int(counts[code == j].sum())
        report.skipped[name] += int((n - counts)[code == j].sum())
    # lhs < rhs - slack implies lhs < rhs, so pairs with lhs >= rhs pass.
    rows, blocks = np.nonzero(hypothesis & (lhs < rhs[:, None]))
    lhs, rhs = lhs[rows, blocks], rhs[rows]
    slack = _FLOAT_SLACK * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    for i in np.flatnonzero(lhs < rhs - slack).tolist():
        row = rows[i]
        report.violations.append(LemmaViolation(int(probe[row]), int(blocks[i]),
            _CONCLUSIONS[code[row]], lhs[i], float(rhs[i]), int(instance[row])))


# One lemma instance as arrays: f*'s theta, the regularizer, the design, the
# condition parameters, lam, the partition's (n, m), the n*m covered rows X
# and y, and per probe its theta, regime, alpha and expected multiplier.
_LemmaInstance = collections.namedtuple("_LemmaInstance", "f_star reg design params lam n m "
                                        "X y thetas regimes alphas expected")


def _instance_terms(inst: _LemmaInstance):
    """The per-instance stage of _check_lemma_instances: scalars, per probe
    its row among the distinct thetas (by bytes), regime code, alpha and
    expected multiplier, the thetas' squared distances, one psi call on [f*,
    thetas, offsets, f's], the f's being f* + alpha (h - f*) of the scaled
    probes, and one residual pass (increments of the thetas and of the f's
    on the psi-sphere, multipliers of the thetas)."""
    seen = {}
    rows = [seen.setdefault(theta.tobytes(), (len(seen), theta))[0] for theta in inst.thetas]
    probes = np.array([rows, [_REGIMES.index(g) for g in inst.regimes], inst.alphas, inst.expected])
    thetas = np.array([theta for _, theta in seen.values()])
    deltas, scaled, p = thetas - inst.f_star, probes[1] == 2, inst.params
    at = probes[0, scaled].astype(np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        f_scaled = inst.f_star + probes[2, scaled, None] * deltas[at]
    norms = psi_batch(inst.reg, np.concatenate([inst.f_star[None], thetas, deltas, f_scaled]))
    f_scaled = f_scaled[np.abs(norms[len(thetas) + 1 + at] - p.rho) <= _SPHERE_RTOL * p.rho]
    if not np.isfinite(f_scaled).all():
        raise InvalidInput("coefficients must be finite")
    stats = _residual_pass(
        inst.X, inst.y, inst.f_star, np.concatenate([thetas, f_scaled]), thetas, inst.n, inst.m
    )
    scalars = (p.gamma1, p.gamma2, p.r, p.rho, inst.lam, inst.n, len(thetas))
    return scalars, probes, population_sq_norms(deltas, inst.design), norms, *stats


def _check_probes(report, first: int, chunk) -> None:
    """The stage of _check_lemma_instances over every probe of a chunk of
    _instance_terms at once, its instances numbered from first."""
    scalars, probes, q, norms, incs, mults = zip(*chunk)
    k = np.array([x.shape[1] for x in probes])
    inst = np.repeat(np.arange(k.size), k)

    def starts(sizes):  # per probe, where its instance's part of a concatenation starts
        return (np.cumsum(sizes) - sizes)[inst]

    head = starts(k)

    def ordinal(mask):  # per probe, how many probes of its instance before it are in mask
        before = np.cumsum(mask) - mask
        return before - before[head]

    g1, g2, r, rho, lam, n, u = np.array(scalars)[inst].T
    rows, regime, alpha, em = np.concatenate(probes, axis=1)
    rows, regime, n, u = (x.astype(np.intp) for x in (rows, regime, n, u))
    q = np.concatenate(q)[starts([x.size for x in q]) + rows]
    dist = np.sqrt(np.where(q < 0.0, 0.0, q))
    at = starts([x.size for x in norms])
    norms = np.concatenate([*norms, [math.nan]])
    psi_star, psi_h, psi_delta = norms[at], norms[at + 1 + rows], norms[at + 1 + u + rows]
    on_sphere = np.abs(psi_delta - rho) <= _SPHERE_RTOL * rho
    scaled = regime == 2
    at_f = scaled & on_sphere
    # The left side at f for the scaled probes on the psi-sphere, else at h;
    # b_h, m_h and the left side's increment per (probe, block), nan past n.
    psi_lhs = np.where(at_f, norms[at + 1 + 2 * u + ordinal(scaled)], psi_h)
    inc_at = starts([x.size for x in incs])
    mult_at = sum(x.size for x in incs) + starts([x.size for x in mults])
    lhs_rows = np.where(at_f, u + ordinal(at_f), rows)
    blocks = np.arange(n.max())
    index = np.array([inc_at + rows * n, mult_at + rows * n, inc_at + lhs_rows * n])
    index = index[:, :, None] + blocks
    index[:, blocks >= n[:, None]] = -1
    b_h, m_h, lhs = np.concatenate([x.ravel() for x in incs + mults] + [[math.nan]])[index]

    # Per probe: its conclusion (code into _CONCLUSIONS), the gates of its
    # regime, far or near block hypothesis and right side.  A block meets
    # the far hypothesis when b_h >= far_lo, the near one when |m_h - em| <=
    # near_hi; nan, for the side not taken, a failed gate or padding, never.
    r2 = r * r
    code = regime + (at_f & ~(dist >= r))
    gate = np.choose(code, [
        ~((psi_delta > rho) | (dist < r)),
        on_sphere & (dist < r) & (em >= 0.0) & (psi_h - psi_star >= 0.7 * rho),
        on_sphere,
        (em >= 0.0) & (psi_lhs - psi_star >= (0.8 * alpha - 0.1) * rho),
    ])
    far = code % 2 == 0
    a = np.where(scaled, alpha, 1.0)  # 1.0 * 0.5 is 0.5: the far rhs keeps its bits
    rhs = np.where(far, a * 0.5 * g1 * dist * dist, np.where(code == 1, 0.5, a) * g2 * r2)
    far_lo = np.where(gate & far, g1 * dist * dist, math.nan)
    near_hi = np.where(gate & ~far, g2 * r2, math.nan)
    lhs += (lam * (psi_lhs - psi_star))[:, None]
    hypothesis = (b_h >= far_lo[:, None]) | (np.abs(m_h - em[:, None]) <= near_hi[:, None])
    _check_blocks(report, first + inst, np.arange(inst.size) - head, code, n, hypothesis, lhs, rhs)


def _check_lemma_instances(instances) -> LemmaCheckReport:
    """The report of an iterable of _LemmaInstance, numbered from 0.  Each
    instance has its own geometry, psi and residual pass; the rest is taken
    for every probe of a chunk at once, in about eight (probes, blocks)
    arrays, so a chunk keeps probes * blocks within ``TEMP_ENTRIES // 8``."""
    report, chunk, first, probes, blocks = LemmaCheckReport(), [], 0, 0, 0
    for number, inst in enumerate(instances):
        probes, blocks = probes + len(inst.thetas), max(blocks, inst.n)
        if chunk and probes * blocks > TEMP_ENTRIES // 8:
            _check_probes(report, first, chunk)
            chunk, first, probes, blocks = [], number, len(inst.thetas), inst.n
        chunk.append(_instance_terms(inst))
    if chunk:
        _check_probes(report, first, chunk)
    return report


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

    lam must lie in the admissible window and the probe thetas form a finite
    (k, d) stack; the check is ``_check_lemma_instances`` on this instance.
    Violations beyond float roundoff indicate an arithmetic bug.
    """
    lo, hi = lambda_window(params)
    if not (lo <= lam <= hi):
        raise ConfigError(f"lambda {lam} outside window [{lo}, {hi}]")
    probes = list(probes)
    thetas = _probe_geometry([probe.theta for probe in probes], f_star, design)[0]
    if not probes:
        psi_batch(reg, f_star.theta[None])
        return LemmaCheckReport()
    X, y = _used_arrays(f_star.dim, f_star, data, p)
    return _check_lemma_instances([_LemmaInstance(
        f_star.theta, reg, design, params, lam, p.n, p.m, X, y, thetas,
        *zip(*((pr.regime, pr.alpha, pr.expected_multiplier) for pr in probes)),
    )])


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
    normalised and filtered once; for each center, one broadcast
    ``norming_functional`` call covers every v and every step.
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
        # vecdot, not einsum: it rounds like z @ delta, row by row.  fmax,
        # folded over the v's in order, lets no NaN (from overflowing
        # inputs) into the sup.
        vals = np.vecdot(norming_functional(reg, np.array(vs)[:, None, :], steps), steps)
        best = min(best, float(np.fmax.reduce(vals, axis=0, initial=-math.inf).min()))
    return DeltaEstimate(
        best, True, len(centers), len(centers) * steps.shape[0], len(directions), rho, r
    )


# ---------------------------------------------------------------------------
# randomized lemma sweep (hypothesis-satisfying instance generator)
# ---------------------------------------------------------------------------

# Populations of the draws with replacement of _draw_lemma_instance, and
# the alphas of its scaled probes.
_SIGNS = np.array([-1.0, 1.0])
_BLOCK_COUNTS = np.array([5, 7, 9, 11])
_ALPHAS = (2.0, 4.0, 8.0)
_L1 = Regularizer.l1()


def _pick(rng, a: np.ndarray, size=None):
    """``rng.choice(a, size)`` with replacement from the 1-d array a, draw for
    draw, without choice's Python argument handling."""
    return a[rng.integers(0, a.shape[0], size=size)]


# DesignSpec and Regularizer are immutable, so one per dimension (8 to 24)
# serves every instance.
@functools.cache
def _identity_design(d: int) -> DesignSpec:
    return DesignSpec.identity(d)


@functools.cache
def _slope_regularizer(d: int) -> Regularizer:
    return Regularizer.slope(d=d)


def _draw_lemma_instance(rng, slope_fraction: float) -> _LemmaInstance:
    """One randomized dataset + parameter draw + probe battery, as arrays.

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
    f_star = np.zeros(d)
    idx = rng.choice(d, size=s, replace=False)
    f_star[idx] = rng.uniform(0.5, 2.0, size=s) * _pick(rng, _SIGNS, s)
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
    data = generate(n * m, d, f_star, design, noise, rng.integers(2**63))

    free = (f_star == 0.0).nonzero()[0]

    # A probe is f* + rho u / psi(u), set in place: f* is 0 on the support of
    # u, and adding the zeros elsewhere would change no bit.
    def one_hot_probe():
        # 1-sparse on the psi-sphere, L2 distance rho / w1 >= r
        h = f_star.copy()
        k = int(_pick(rng, free))
        h[k] = rho * _pick(rng, _SIGNS) / w1
        return h

    probes = [(one_hot_probe(), REGIME_FAR, 1.0), (one_hot_probe(), REGIME_FAR, 1.0)]

    # near probes (l1 only): positive mass spread off-support so the norm
    # gap psi(h) - psi(f*) equals rho exactly
    if not use_slope:
        k_needed = max(int(math.ceil((rho / r) ** 2 * 1.3)) + 1, 2)
        k_spread = min(len(free), k_needed)
        if k_spread >= 2 and rho / math.sqrt(k_spread) < r:
            h = f_star.copy()
            h[rng.choice(free, size=k_spread, replace=False)] = rho / float(k_spread)
            probes += [(h, REGIME_SPHERE_NEAR, 1.0)] + [(h, REGIME_SCALED, a) for a in _ALPHAS]

    # scaled far branch
    h = one_hot_probe()
    probes += [(h, REGIME_SCALED, a) for a in _ALPHAS]
    return _LemmaInstance(f_star, reg, design, params, lam, n, m, data.features,
                          data.responses, *zip(*probes), (0.0,) * len(probes))


def random_lemma_instance(rng, slope_fraction: float = 0.25):
    """``_draw_lemma_instance`` as the arguments of ``lemma_reg_check``."""
    inst = _draw_lemma_instance(rng, slope_fraction)
    return (
        list(map(LemmaProbe, inst.thetas, inst.regimes, inst.alphas, inst.expected)),
        LinearPredictor(inst.f_star), Dataset(inst.X, inst.y), BlockPartition(inst.n, inst.m),
        inst.params, inst.lam, inst.reg, inst.design,
    )


def lemma_sweep(count: int, seed: int = 0, slope_fraction: float = 0.25) -> LemmaCheckReport:
    """``_check_lemma_instances`` on `count` instances of
    ``_draw_lemma_instance``, taken as they are drawn; that draw order is
    part of the ``momreg verify`` report contract."""
    rng = np.random.default_rng(seed)
    return _check_lemma_instances(_draw_lemma_instance(rng, slope_fraction) for _ in range(count))
