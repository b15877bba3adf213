"""Numerical verifiers for the block conditions and the theorem chains.

Two kinds of check live here.  Monte Carlo checkers (the two block
conditions, the end-to-end theorem diagnostics, the sampled Delta
estimate) report fractions and make no uniform claim: a finite probe set
under-verifies a for-all statement.  Deterministic checkers
(lemma_reg_check and the super-linearity cases) assert implications that
hold in exact arithmetic whenever their hypotheses hold numerically, so
any violation beyond float roundoff indicates an arithmetic bug.

``lemma_sweep`` checks the lemma implications on randomized instances,
drawn a chunk at a time by ``_draw_lemma_instances``, whose docstring
states the draws that ``momreg verify`` reports depend on.
``_check_chunk`` checks each drawn chunk whole, as arrays padded to fixed
slots per instance, before the next one is drawn; ``lemma_reg_check`` is
its one-instance case.  ``estimate_delta``'s docstring states the draws of
the Delta estimate, which that report also depends on.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .blocks import _used_arrays, block_increments, middle, multiplier_components
from .errors import (
    ConfigError,
    DimensionError,
    HypothesisViolated,
    InvalidInput,
    ProbeOutOfRegime,
)
from .model import (BlockPartition, Dataset, DesignSpec, LinearPredictor, _check_count,
                    _check_number, _frozen_array, population_sq_norms)
from .objective import (
    ConditionParams,
    Regularizer,
    _theta_of,
    lambda_window,
    psi_batch,
    slope_weights_for,
)

REGIME_FAR = "far"
REGIME_SPHERE_NEAR = "sphere_near"
REGIME_SCALED = "scaled"
_REGIMES = (REGIME_FAR, REGIME_SPHERE_NEAR, REGIME_SCALED)  # by regime code
_REGIME_CODES = {name: code for code, name in enumerate(_REGIMES)}

_FLOAT_SLACK = 1e-9
_SPHERE_RTOL = 1e-6


@np.errstate(over="ignore")  # an overflowing difference reads +inf
def excess_risk(theta_hat, theta_star, design: DesignSpec) -> float:
    """Sigma-weighted squared parameter error; equals the excess prediction
    risk in the well-specified synthetic model."""
    th = _theta_of(theta_hat)
    ts = _theta_of(theta_star)
    if th.shape != ts.shape:
        raise DimensionError(f"shape mismatch {th.shape} vs {ts.shape}")
    if th.shape[0] != design.dim:
        raise DimensionError("design dimension mismatch")
    return max(float(population_sq_norms((th - ts)[None], design)[0]), 0.0)


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
    _check_number("distance", distance, strict=False)
    _check_count("count", count)
    if f_star.dim != design.dim:
        raise DimensionError(f"predictor dim {f_star.dim} vs design dim {design.dim}")
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
    """The (k, d) stack of the probe thetas and their exact L2(mu) distances to f_star.

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
    q = population_sq_norms(thetas - f_star.theta, design)
    return thetas, np.sqrt(np.where(q < 0.0, 0.0, q))


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
    _check_number("gamma1", gamma1)
    _check_number("r", r)
    _check_number("fraction_threshold", fraction_threshold, strict=False)
    if fraction_threshold > 1:  # no fraction is above 1, so no probe could pass
        raise ConfigError(f"fraction_threshold must be in [0, 1], got {fraction_threshold!r}")
    thetas, dists = _probe_geometry(probes, f_star, design)
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
    _check_number("gamma2", gamma2)
    _check_number("r", r)
    _check_number("fraction_threshold", fraction_threshold, strict=False)
    if fraction_threshold > 1:  # no fraction is above 1, so no probe could pass
        raise ConfigError(f"fraction_threshold must be in [0, 1], got {fraction_threshold!r}")
    thetas, dists = _probe_geometry(probes, f_star, design)
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


@np.errstate(over="ignore")  # an overflowing difference or psi reads +inf
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
    for name, c in (("c1", c1), ("c2", c2), ("c3", c3)):
        _check_number(name, c, strict=False)
    th = _theta_of(theta_hat)
    ts = _theta_of(theta_star)
    psi_error = float(psi_batch(reg, (th - ts)[None, :])[0])
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
    _check_number("atol", atol, strict=False)
    th = _theta_of(theta_hat)
    ts = _theta_of(theta_star)
    if th.shape != ts.shape:
        raise DimensionError(f"shape mismatch {th.shape} vs {ts.shape}")
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
        if self.regime not in _REGIME_CODES:
            raise ConfigError(f"unknown lemma regime {self.regime!r}")
        if self.regime == REGIME_SCALED:
            _check_number("scaled regime alpha", self.alpha, 1.0)


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
    rows, cols = np.nonzero(hypothesis & (lhs < rhs[:, None]))
    lhs, rhs = lhs[rows, cols], rhs[rows]
    slack = _FLOAT_SLACK * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    for i in np.flatnonzero(lhs < rhs - slack).tolist():
        row = rows[i]
        report.violations.append(LemmaViolation(int(probe[row]), int(cols[i]),
            _CONCLUSIONS[code[row]], lhs[i], float(rhs[i]), int(instance[row])))


# A chunk of c lemma instances as arrays, each padded to the chunk's widest:
# f*'s (c, D) thetas; the (c, u, D) stack of the thetas its probes use (rows
# may repeat); the (4, c, k) probe table, per probe its row in that stack,
# regime code (into _REGIMES, -1 for no probe), alpha and expected
# multiplier; each instance's regularizer and design; the (5, c) gamma1,
# gamma2, r, rho and lam; n, m and d; the instances' (n m, d) designs X,
# raveled one after another, and their responses y one after another, or
# with noisy their noise, the responses being X f* + noise.
_LemmaChunk = collections.namedtuple("_LemmaChunk", "f_star thetas probes regs designs params "
                                     "n m d X y noisy")


def _check_chunk(report, first: int, chunk: _LemmaChunk) -> None:
    """Add to report the check of every probe of a chunk, its instances
    numbered from first.

    An instance's statistics sit in fixed slots: its u thetas, the f's
    f* + alpha (h - f*) of its scaled probes in probe order, h = f* and the
    thetas' offsets from f*.  psi and the squared distances are taken once
    per group of instances that share a regularizer and a design, on 2-d
    stacks as ``psi_batch`` is.  Each instance then makes one residual pass
    over the slots in use (an f only on the psi-sphere) into one
    (instances, slots, blocks) array, nan past its n blocks."""
    c, u = chunk.thetas.shape[:2]
    inst, probe = np.nonzero(chunk.probes[1] >= 0)  # the probes, in instance then probe order
    row, regime, alpha, em = chunk.probes[:, inst, probe]
    row, regime = row.astype(np.intp), regime.astype(np.intp)
    scaled = regime == 2
    # Each scaled probe's f sits in the slot of its ordinal among its
    # instance's scaled probes; an unused slot's f is f*.
    ordinal = np.cumsum(chunk.probes[1] == 2, axis=1)[inst, probe] - 1
    f_count = int(ordinal.max(initial=-1)) + 1
    f_rows, f_alpha = np.zeros((c, f_count), np.intp), np.zeros((c, f_count))
    f_valid = np.zeros((c, f_count), bool)
    at = inst[scaled], ordinal[scaled]
    f_rows[at], f_alpha[at], f_valid[at] = row[scaled], alpha[scaled], True
    f_star = chunk.f_star[:, None]
    deltas = chunk.thetas - f_star
    each = np.arange(c)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        fs = f_star + f_alpha[:, :, None] * deltas[each, f_rows]
    H = u + f_count  # h's slot; the offsets follow it
    slots = np.concatenate([chunk.thetas, fs, f_star, deltas], axis=1)
    norms, q = np.empty(slots.shape[:2]), np.empty((c, u))
    groups = collections.defaultdict(list)
    for i, key in enumerate(zip(map(id, chunk.regs), map(id, chunk.designs))):
        groups[key].append(i)
    for idx in groups.values():
        d, design = int(chunk.d[idx[0]]), chunk.designs[idx[0]]
        part = slots[idx, :, :d]
        norms[idx] = psi_batch(chunk.regs[idx[0]], part.reshape(-1, d)).reshape(len(idx), -1)
        q[idx] = population_sq_norms(part[:, H + 1 :].reshape(-1, d), design).reshape(len(idx), u)

    rho_c = chunk.params[3, :, None]  # per instance; per probe below
    on_sphere = np.abs(norms[:, H + 1 :] - rho_c) <= _SPHERE_RTOL * rho_c  # per stacked theta
    f_use = f_valid & on_sphere[each, f_rows]
    if not np.isfinite(fs[f_use]).all():
        raise InvalidInput("coefficients must be finite")
    t_use = np.zeros((c, u), bool)
    t_use[inst, row] = True
    use = np.concatenate([t_use, f_use, np.ones((c, 1), bool), t_use], axis=1)
    stack, sizes = slots[use], use.sum(axis=1)
    sums = np.full((stack.shape[0], chunk.n.max()), math.nan)
    lo = x_at = y_at = 0
    for size, k, n, m, d in zip(sizes.tolist(), (sizes - 1 - t_use.sum(axis=1)).tolist(),
                                chunk.n.tolist(), chunk.m.tolist(), chunk.d.tolist()):
        N = n * m
        blocks._residual_sums(chunk.X[x_at : x_at + N * d].reshape(N, d), chunk.y[y_at : y_at + N],
                              stack[lo : lo + size, :d], k, sums[lo : lo + size, :n], chunk.noisy)
        lo, x_at, y_at = lo + size, x_at + N * d, y_at + N
    stats = np.full((*use.shape, sums.shape[1]), math.nan)
    stats[use] = sums
    stats /= chunk.m[:, None, None]
    stats[:, H + 1 :] *= 2.0
    stats[:, :H] -= stats[:, H, None]
    checked = use[:, :, None] & (np.arange(sums.shape[1]) < chunk.n[:, None, None])
    checked[:, H] = False
    if not np.isfinite(stats[checked]).all():
        raise InvalidInput("block statistics must be finite")

    g1, g2, r, rho, lam = chunk.params[:, inst]
    n, q = chunk.n[inst], q[inst, row]
    dist = np.sqrt(np.where(q < 0.0, 0.0, q))
    psi_star, psi_h, psi_delta = norms[inst, H], norms[inst, row], norms[inst, H + 1 + row]
    on_sphere = on_sphere[inst, row]
    at_f = scaled & on_sphere
    # The left side at f for the scaled probes on the psi-sphere, else at h;
    # b_h, m_h and the left side's increment per (probe, block), nan past n.
    f_slot = u + ordinal
    psi_lhs = np.where(at_f, norms[inst, f_slot], psi_h)
    b_h, m_h = stats[inst, row], stats[inst, H + 1 + row]
    lhs = stats[inst, np.where(at_f, f_slot, row)]

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
    _check_blocks(report, first + inst, probe, code, n, hypothesis, lhs, rhs)


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
    (k, d) stack; the check is ``_check_chunk`` on a one-instance chunk
    whose slots are this instance's distinct (by bytes) thetas and its
    scaled probes.  Violations beyond float roundoff indicate an
    arithmetic bug.
    """
    lo, hi = lambda_window(params)
    if not (lo <= lam <= hi):
        raise ConfigError(f"lambda {lam} outside window [{lo}, {hi}]")
    probes = list(probes)
    thetas = _probe_geometry([probe.theta for probe in probes], f_star, design)[0]
    report = LemmaCheckReport()
    if not probes:
        psi_batch(reg, f_star.theta[None])
        return report
    seen = {}
    rows = [seen.setdefault(theta.tobytes(), (len(seen), theta))[0] for theta in thetas]
    X, y = _used_arrays(f_star.dim, f_star, data, p)
    table = [rows, [_REGIME_CODES[pr.regime] for pr in probes], [pr.alpha for pr in probes],
             [pr.expected_multiplier for pr in probes]]
    _check_chunk(report, 0, _LemmaChunk(
        f_star.theta[None], np.array([theta for _, theta in seen.values()])[None],
        np.array(table)[:, None], [reg], [design],
        np.array([[params.gamma1], [params.gamma2], [params.r], [params.rho], [lam]]),
        np.array([p.n]), np.array([p.m]), np.array([f_star.dim]), X.ravel(), y, False,
    ))
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
    direction give one functional; a v without a coordinate axis raises
    DimensionError.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0:
        raise DimensionError("v must be a vector or a stack of vectors, got a scalar")
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


def _psi_rows(reg: Regularizer, u: np.ndarray, radii) -> np.ndarray:
    """radius_i u_i / psi(u_i) for each row u_i of u that is not all zero
    (psi(u_i) > 0), in order; radii is one radius per row or one for all."""
    norms = psi_batch(reg, u)
    keep = norms > 0.0
    return np.broadcast_to(radii, norms.shape)[keep, None] * (u[keep] / norms[keep, None])


def estimate_delta(
    reg: Regularizer,
    f_star: LinearPredictor,
    rho: float,
    r: float,
    design: DesignSpec,
    budget: int = 200,
    seed=0,
    n_centers: int = 8,
    n_norming: int = 24,
) -> DeltaEstimate:
    """Sample the inf-inf-sup separation estimate around f_star: the least,
    over centers f and feasible steps h - f, of the greatest z(h - f) over
    the norming functionals z of the v of f.

    The draws are the ``momreg verify`` report contract.  Each is one call
    of the Generator ``np.random.default_rng(seed)``, in this order, with
    c = n_centers - 1, b = budget and d = design.dim:

    1. center directions standard_normal((c, d)), then their radii
       uniform(0.0, 1.0, c): the centers are f* and f* + (rho / 40) radius
       u / psi(u) for each direction u;
    2. sparsities integers(1, d + 1, b); supports, row i's the first
       sparsity_i entries of the argsort (stable) of row i of random((b,
       d)); values standard_normal((b, d)), of which direction i keeps those
       on its support.  The steps are rho u / psi(u) for the directions u:
       e_k, then -e_k, for each coordinate k, then these b; a step is
       feasible when its L2 norm is at most r (1 + 1e-12);
    3. v directions standard_normal((n_norming, d)), then their radii
       uniform(0.0, 1.0, n_norming): the v of a center f are f, f + (rho /
       20) radius u / psi(u) for each direction u, and 0 when psi(f) <=
       rho / 20.

    A drawn direction that is all zero (probability 0) is dropped, with its
    radius.  n_centers counts the centers, n_candidates the steps and
    n_feasible the (center, feasible step) pairs.  The steps, shared by all
    centers, are normalised and filtered once; then one
    ``norming_functional`` call takes every (center, v, step) triple of a
    ``blocks.row_slices`` slice of the steps.
    """
    if reg.kind not in ("l1", "slope"):
        raise ConfigError("estimate_delta needs an l1 or slope regularizer")
    _check_count("budget", budget)
    _check_count("n_centers", n_centers, 1)
    _check_count("n_norming", n_norming)
    if rho != math.inf:  # the overflowing case, whose sup is kept free of nan below
        _check_number("rho", rho, -math.inf)
    _check_number("r", r, -math.inf)
    d = design.dim
    if f_star.dim != d:
        raise DimensionError(f"predictor dim {f_star.dim} vs design dim {d}")
    if rho <= 0.0:
        return DeltaEstimate(None, False, 0, 0, 0, rho, r)
    rng = np.random.default_rng(seed)

    # Centers stay well inside the rho/20 norming ball around f_star: the
    # hypothesis consumes norming functionals of that ball, and a center
    # drifting outside it loses the sign freedom the bound relies on.
    u = rng.standard_normal((n_centers - 1, d))
    offsets = _psi_rows(reg, u, rho / 40.0 * rng.uniform(0.0, 1.0, n_centers - 1))
    centers = np.vstack([f_star.theta, f_star.theta + offsets])

    sparsity = rng.integers(1, d + 1, budget)
    support = np.zeros((budget, d), dtype=bool)
    np.put_along_axis(support, np.argsort(rng.random((budget, d)), axis=1, kind="stable"),
                      np.arange(d) < sparsity[:, None], axis=1)
    directions = np.vstack([np.kron(np.eye(d), [[1.0], [-1.0]]),  # e_0, -e_0, e_1, ...
                            np.where(support, rng.standard_normal((budget, d)), 0.0)])
    steps = _psi_rows(reg, directions, rho)
    n_candidates = len(steps)

    u = rng.standard_normal((n_norming, d))
    offsets = _psi_rows(reg, u, rho / 20.0 * rng.uniform(0.0, 1.0, n_norming))

    q = population_sq_norms(steps, design)
    steps = steps[~(np.sqrt(np.maximum(q, 0.0)) > r * (1 + 1e-12))]
    if len(steps) == 0:
        return DeltaEstimate(
            None, False, len(centers), 0, n_candidates, rho, r
        )

    # The v of center f: f + 0 (f's norming functionals), f + each offset,
    # then 0 where psi(f) <= rho/20, else f again, which keeps the sup.
    vs = centers[:, None] + np.vstack([np.zeros(d), offsets, np.zeros(d)])
    vs[psi_batch(reg, centers) <= rho / 20.0, -1] = 0.0
    best = math.inf
    for rows in blocks.row_slices(len(steps), vs.size):
        step = steps[rows]
        # vecdot, not einsum: it rounds like z @ delta, triple by triple.
        # fmax, folded over the v's in order, lets no NaN (from overflowing
        # inputs) into the sup.
        vals = np.vecdot(norming_functional(reg, vs[:, :, None], step), step)
        best = min(best, float(np.fmax.reduce(vals, axis=1, initial=-math.inf).min()))
    return DeltaEstimate(
        best, True, len(centers), len(centers) * len(steps), n_candidates, rho, r
    )


# ---------------------------------------------------------------------------
# randomized lemma sweep (hypothesis-satisfying instance generator)
# ---------------------------------------------------------------------------

# The lemma sweep draws its instances this many at a time.
LEMMA_CHUNK = 32
_MAX_DIM = 24  # instances have 8 to 24 coordinates
_SIGNS = np.array([-1.0, 1.0])
_BLOCK_COUNTS = np.array([5, 7, 9, 11])
_L1 = Regularizer.l1()

# The probe table of an instance without and with a near probe, whose
# thetas are the two far one-hot probes, the scaled far one-hot probe and
# the near probe (unused without one): per probe its row, regime code (-1
# pads the shorter table), alpha and expected multiplier.  The near probe's
# scaled probes come before the far one's.
_PROBES = _frozen_array([
    [[0, 1, 2, 2, 2, 0, 0, 0, 0], [0, 1, 3, 3, 3, 3, 2, 2, 2]],
    [[0, 0, 2, 2, 2, -1, -1, -1, -1], [0, 0, 1, 2, 2, 2, 2, 2, 2]],
    [[1, 1, 2, 4, 8, 1, 1, 1, 1], [1, 1, 1, 2, 4, 8, 2, 4, 8]],
    np.zeros((2, 9)),
], "probe table")


# DesignSpec and Regularizer are immutable, so one per dimension (8 to 24)
# serves every instance.
@functools.cache
def _identity_design(d: int) -> DesignSpec:
    return DesignSpec.identity(d)


@functools.cache
def _slope_regularizer(d: int) -> Regularizer:
    return Regularizer.slope(d=d)


def _draw_lemma_instances(rng, count: int, slope_fraction: float) -> _LemmaChunk:
    """A chunk of `count` randomized lemma instances (dataset, parameters and
    probe battery), as the arrays of a ``_LemmaChunk``, drawn from rng.

    Probes are constructed so the hypothesis gates mostly pass: far probes
    sit on one coordinate (psi-sphere touching the far regime), near probes
    spread over coordinates off the support of f_star with positive signs,
    and scaled probes take alpha in {2, 4, 8} over both branches.

    The draws are the ``momreg verify`` report contract.  Each is one
    Generator call for the whole chunk, in this order, with c = count and i
    indexing the instances:

    1. d = integers(8, 25, c); s = integers(1, 4, c), the size of f*'s
       support; its values uniform(0.5, 2.0, (c, 3)) times signs
       _SIGNS[integers(0, 2, (c, 3))], of which instance i keeps s_i;
    2. the slope flags random(c) < slope_fraction, with w1 the first slope
       weight of d_i for a slope instance and 1 for an l1 one;
    3. gamma1 = uniform(0.4, 0.9, c), gamma2 = uniform(0.2, 1.0, c) gamma1 / 6,
       r = uniform(0.3, 1.0, c) and rho = uniform(1.05, 3.0, c) r w1;
    4. lam = hi where random(c) < 0.1, else uniform(lo, hi), for (lo, hi)
       the ``lambda_window`` of each instance;
    5. n = _BLOCK_COUNTS[integers(0, 4, c)], m = integers(8, 31, c) and the
       noise scale uniform(0.01, 0.3, c) r;
    6. a permutation of each instance's coordinates: the argsort (stable)
       of random((c, 24)) with the keys past d_i set to inf.  Its first s_i
       entries are f*'s support, in the order of the values above;
    7. the far probes' positions in that permutation, s + integers(0, d - s,
       (c, 3)), and their signs _SIGNS[integers(0, 2, (c, 3))];
    8. the chunk's designs, standard_normal of sum(n m d) entries: instance
       i's X is its next n_i m_i d_i entries as an (n_i m_i, d_i) array;
       then its noise, standard_normal of sum(n m) entries, of which
       instance i takes its next n_i m_i as eps and y = X f* + scale eps.

    Far probe j of instance i is f* + rho u / psi(u) for u the one-hot
    vector with sign j at coordinate j of 7.; the first two are far probes,
    the third the scaled probe at each alpha.  An l1 instance has a near
    probe when rho / sqrt(k) < r for k = min(d - s, max(ceil((rho / r)^2
    1.3) + 1, 2)), the square taken as a product (k >= 2, as d - s >= 5):
    f* + rho u / psi(u) for u the 0/1 vector on the k entries of the
    permutation after f*'s support, as a sphere_near probe and a scaled
    probe at each alpha.  The probe norms are exact (w1 of a signed one-hot
    vector, k of a 0/1 vector with k ones), so psi is not called.
    """
    d = rng.integers(8, _MAX_DIM + 1, count)
    s = rng.integers(1, 4, count)
    values = rng.uniform(0.5, 2.0, (count, 3)) * _SIGNS[rng.integers(0, 2, (count, 3))]
    slope = rng.random(count) < slope_fraction
    regs = [_slope_regularizer(k) if on else _L1 for k, on in zip(d.tolist(), slope.tolist())]
    w1 = np.array([reg.weights[0] if on else 1.0 for reg, on in zip(regs, slope.tolist())])
    gamma1 = rng.uniform(0.4, 0.9, count)
    gamma2 = rng.uniform(0.2, 1.0, count) * gamma1 / 6.0
    r = rng.uniform(0.3, 1.0, count)
    rho = rng.uniform(1.05, 3.0, count) * r * w1
    lo = 3.0 * gamma2 * r * r / rho
    hi = gamma1 / 2.0 * r * r / rho
    lam = np.where(rng.random(count) < 0.1, hi, rng.uniform(lo, hi))
    n = _BLOCK_COUNTS[rng.integers(0, 4, count)]
    m = rng.integers(8, 31, count)
    scale = rng.uniform(0.01, 0.3, count) * r
    keys = rng.random((count, _MAX_DIM))
    keys[np.arange(_MAX_DIM) >= d[:, None]] = np.inf
    perm = np.argsort(keys, axis=1, kind="stable")
    far = np.take_along_axis(perm, s[:, None] + rng.integers(0, (d - s)[:, None], (count, 3)), 1)
    far_values = rho[:, None] * _SIGNS[rng.integers(0, 2, (count, 3))] / w1[:, None]
    rows = n * m
    Z = rng.standard_normal(int(rows @ d))
    noise = np.repeat(scale, rows) * rng.standard_normal(int(rows.sum()))

    # Each coordinate's position in its instance's permutation.
    rank = np.empty_like(perm)
    np.put_along_axis(rank, perm, np.arange(_MAX_DIM), axis=1)
    f_star = np.where(rank < s[:, None], np.take_along_axis(values, np.minimum(rank, 2), 1), 0.0)
    q = rho / r
    k = np.minimum(d - s, np.maximum(np.ceil(q * q * 1.3).astype(np.int64) + 1, 2))
    near = ~slope & (rho / np.sqrt(k) < r)
    # The thetas: the two far probes, the scaled far one, the near one.
    thetas = np.repeat(f_star[:, None], 4, axis=1)
    thetas[:, 3] = np.where((rank >= s[:, None]) & (rank < (s + k)[:, None]),
                            (rho / k)[:, None], f_star)
    thetas[np.arange(count)[:, None], [0, 1, 2], far] = far_values

    return _LemmaChunk(
        f_star, thetas, _PROBES[:, near.astype(np.intp)], regs,
        [_identity_design(k) for k in d.tolist()], np.array([gamma1, gamma2, r, rho, lam]),
        n, m, d, Z, noise, True,
    )


def lemma_sweep(count: int, seed: int = 0, slope_fraction: float = 0.25) -> LemmaCheckReport:
    """The lemma check of `count` instances, numbered from 0, drawn from one
    ``default_rng(seed)`` stream by ``_draw_lemma_instances`` in chunks of
    ``LEMMA_CHUNK`` (the last one shorter), one ``_check_chunk`` call per
    chunk, the path ``lemma_reg_check`` takes for its one instance; the
    drawer's docstring states the draws, which are part of the ``momreg
    verify`` report contract."""
    _check_count("count", count)
    rng = np.random.default_rng(seed)
    report = LemmaCheckReport()
    for start in range(0, count, LEMMA_CHUNK):
        # no name holds the chunk, so it is released once checked, before
        # the next one is drawn
        _check_chunk(report, start, _draw_lemma_instances(
            rng, min(LEMMA_CHUNK, count - start), slope_fraction))
    return report
