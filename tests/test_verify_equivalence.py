"""The array forms of estimate_delta, norming_functional, lemma_reg_check,
lemma_sweep, the two block-condition checks and sample_sphere_probes
against the loop forms they replaced, kept here as references, and the
lemma sweep's chunk drawer against a per-instance form of its draws.

The array forms keep the arithmetic of the loops (the same dot products,
the same order of operations per block), so every comparison is exact.
"""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momreg import (
    BlockPartition,
    ConditionParams,
    Dataset,
    DesignSpec,
    DimensionError,
    InvalidInput,
    LemmaProbe,
    LinearPredictor,
    NoiseSpec,
    Regularizer,
    default_slope_weights,
    check_condition_one,
    check_condition_two,
    estimate_delta,
    generate,
    lemma_reg_check,
    lemma_sweep,
    make_partition,
    norming_functional,
    psi,
)
from momreg import blocks, verify
from momreg.errors import ConfigError, ProbeOutOfRegime
from momreg.model import population_l2_distance
from momreg.objective import lambda_window
from momreg.verify import (
    _CONCLUSIONS,
    _FLOAT_SLACK,
    ConditionReport,
    _SPHERE_RTOL,
    REGIME_FAR,
    REGIME_SCALED,
    REGIME_SPHERE_NEAR,
    DeltaEstimate,
    LemmaCheckReport,
    LemmaViolation,
    sample_sphere_probes,
)


def _check_args(chunk, i: int) -> tuple:
    """Instance i of a ``verify._draw_lemma_instances`` chunk as the
    arguments of ``lemma_reg_check``."""
    d, n, m = int(chunk.d[i]), int(chunk.n[i]), int(chunk.m[i])
    sizes = chunk.n[:i] * chunk.m[:i]
    at, first, N = int(sizes @ chunk.d[:i]), int(sizes.sum()), n * m
    X, y = chunk.X[at : at + N * d].reshape(N, d), chunk.y[first : first + N]
    f_star = chunk.f_star[i, :d]
    return (
        [LemmaProbe(chunk.thetas[i, int(row), :d], verify._REGIMES[int(code)], alpha, em)
         for row, code, alpha, em in zip(*chunk.probes[:, i].tolist()) if code >= 0],
        LinearPredictor(f_star), Dataset(X, X @ f_star + y if chunk.noisy else y),
        BlockPartition(n, m), ConditionParams(*chunk.params[:4, i].tolist()),
        float(chunk.params[4, i]), chunk.regs[i], chunk.designs[i],
    )


def random_lemma_instance(rng, slope_fraction: float = 0.25):
    """The instance of a one-instance chunk of ``verify._draw_lemma_instances``,
    as the arguments of ``lemma_reg_check``."""
    return _check_args(verify._draw_lemma_instances(rng, 1, slope_fraction), 0)


# ---------------------------------------------------------------------------
# loop references
# ---------------------------------------------------------------------------


def _psi_ref(reg, theta):
    theta = np.asarray(theta, dtype=np.float64)
    if reg.kind == "l1":
        return float(np.sum(np.abs(theta)))
    return float(np.sort(np.abs(theta))[::-1] @ reg.weights)


def _norming_ref(reg, v, direction):
    d = v.shape[0]
    free_sign = np.where(direction != 0.0, np.sign(direction), 1.0)
    signs = np.where(v != 0.0, np.sign(v), free_sign)
    if reg.kind == "l1":
        return signs
    contrib = signs * direction
    order = np.lexsort((-contrib, -np.abs(v)))
    z = np.empty(d)
    z[order] = reg.weights * signs[order]
    return z


def _psi_unit_ref(reg, u):
    scale = _psi_ref(reg, u)
    return None if scale <= 0.0 else u / scale


def _delta_directions_ref(d, budget, rng):
    """The directions of estimate_delta as a list of vectors, each made on
    its own from the contract's draws."""
    dirs = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    sparsity = rng.integers(1, d + 1, budget)
    keys = rng.random((budget, d))
    values = rng.standard_normal((budget, d))
    for i in range(budget):
        u = np.zeros(d)
        for k in np.argsort(keys[i], kind="stable")[: sparsity[i]]:
            u[k] = values[i, k]
        if np.any(u != 0.0):
            dirs.append(u)
    return dirs


def _ball_offsets_ref(reg, d, radius, count, rng):
    """radius * t * u / psi(u) for each drawn direction u that is not all
    zero and its drawn t, made one at a time."""
    units = rng.standard_normal((count, d))
    ts = rng.uniform(0.0, 1.0, count)
    offsets = []
    for u, t in zip(units, ts):
        unit = _psi_unit_ref(reg, u)
        if unit is not None:
            offsets.append(radius * t * unit)
    return offsets


def _estimate_delta_ref(reg, f_star, rho, r, design, budget, seed, n_centers, n_norming):
    d = design.dim
    rng = np.random.default_rng(seed)
    centers = [f_star.theta.copy()]
    for off in _ball_offsets_ref(reg, d, rho / 40.0, n_centers - 1, rng):
        centers.append(f_star.theta + off)
    directions = _delta_directions_ref(d, budget, rng)
    v_offsets = _ball_offsets_ref(reg, d, rho / 20.0, n_norming, rng)
    cov = design.covariance
    best = math.inf
    n_feasible = 0
    for f in centers:
        psi_f = _psi_ref(reg, f)
        for u in directions:
            unit = _psi_unit_ref(reg, u)
            if unit is None:
                continue
            delta = rho * unit
            # a step that is not finite lies at distance +inf (population_sq_distances)
            if not np.isfinite(delta).all() or (
                math.sqrt(max(float(delta @ cov @ delta), 0.0)) > r * (1 + 1e-12)
            ):
                continue
            n_feasible += 1
            sup = -math.inf
            vs = [f] + [f + off for off in v_offsets]
            if psi_f <= rho / 20.0:
                vs.append(np.zeros(d))
            for v in vs:
                sup = max(sup, float(_norming_ref(reg, v, delta) @ delta))
            best = min(best, sup)
    if n_feasible == 0:
        return DeltaEstimate(None, False, len(centers), 0, len(directions), rho, r)
    return DeltaEstimate(
        float(best), True, len(centers), n_feasible, len(directions), rho, r
    )


def _slack(*scales):
    return _FLOAT_SLACK * max(1.0, *(abs(s) for s in scales))


def _lemma_reg_check_ref(probes, f_star, data, p, params, lam, reg, design):
    g1, g2, r, rho = params.gamma1, params.gamma2, params.r, params.rho
    r2 = r * r
    psi_star = _psi_ref(reg, f_star.theta)
    report = LemmaCheckReport()
    for key in ("far", "sphere_near", "scaled_far", "scaled_near"):
        report.checked.setdefault(key, 0)
        report.skipped.setdefault(key, 0)

    def check(idx, key, hyp, lhs_all, rhs):
        for j in range(p.n):
            if hyp[j]:
                lhs = lhs_all[j]
                report.checked[key] += 1
                if lhs < rhs - _slack(lhs, rhs):
                    report.violations.append(LemmaViolation(idx, j, key, lhs, rhs))
            else:
                report.skipped[key] += 1

    for idx, probe in enumerate(probes):
        h = LinearPredictor(probe.theta)
        delta = h.theta - f_star.theta
        dist = population_l2_distance(h, f_star, design)
        psi_h = _psi_ref(reg, h.theta)
        psi_delta = _psi_ref(reg, delta)
        em = probe.expected_multiplier
        b_h = blocks.block_increment(h, f_star, data, p).values
        m_h = blocks.multiplier_component(h, f_star, data, p).values
        near = [abs(m_h[j] - em) <= g2 * r2 for j in range(p.n)]
        far = [b_h[j] >= g1 * dist * dist for j in range(p.n)]
        if probe.regime == REGIME_FAR:
            if psi_delta > rho or dist < r:
                report.skipped["far"] += p.n
                continue
            lhs_reg = lam * (psi_h - psi_star)
            check(idx, "far", far, [b + lhs_reg for b in b_h], 0.5 * g1 * dist * dist)
        elif probe.regime == REGIME_SPHERE_NEAR:
            on_sphere = abs(psi_delta - rho) <= _SPHERE_RTOL * rho
            norming_ok = psi_h - psi_star >= 0.7 * rho
            if not (on_sphere and dist < r and em >= 0.0 and norming_ok):
                report.skipped["sphere_near"] += p.n
                continue
            lhs_reg = lam * (psi_h - psi_star)
            check(idx, "sphere_near", near, [b + lhs_reg for b in b_h], 0.5 * g2 * r2)
        else:
            alpha = probe.alpha
            if not abs(psi_delta - rho) <= _SPHERE_RTOL * rho:
                report.skipped["scaled_far"] += p.n
                continue
            f_scaled = LinearPredictor(f_star.theta + alpha * delta)
            psi_f = _psi_ref(reg, f_scaled.theta)
            b_f = blocks.block_increment(f_scaled, f_star, data, p).values
            lhs_reg = lam * (psi_f - psi_star)
            lhs = [b + lhs_reg for b in b_f]
            if dist >= r:
                check(idx, "scaled_far", far, lhs, alpha * 0.5 * g1 * dist * dist)
            else:
                norming_ok = psi_f - psi_star >= (0.8 * alpha - 0.1) * rho
                if not (em >= 0.0 and norming_ok):
                    report.skipped["scaled_near"] += p.n
                    continue
                check(idx, "scaled_near", near, lhs, alpha * g2 * r2)
    return report


def _sample_sphere_probes_ref(f_star, design, distance, count, rng):
    L = design.cholesky
    probes = []
    for _ in range(count):
        v = rng.standard_normal(design.dim)
        w = np.linalg.solve(L.T, v)
        probes.append(LinearPredictor(f_star.theta + distance * w / np.linalg.norm(v)))
    return probes


def _condition_report(condition, dists, fracs, meds, fraction_threshold):
    fractions = np.asarray(fracs)
    per_pass = fractions >= fraction_threshold
    return ConditionReport(
        condition=condition,
        distances=np.asarray(dists),
        fractions=fractions,
        median_stats=np.asarray(meds),
        threshold=fraction_threshold,
        per_probe_pass=per_pass,
        passed=bool(np.all(per_pass)),
    )


def _check_condition_one_ref(data, p, f_star, probes, gamma1, r, design, fraction_threshold=0.9):
    dists, fracs, meds = [], [], []
    for probe in map(LinearPredictor, probes):
        dist = population_l2_distance(probe, f_star, design)
        if dist < r * (1.0 - 1e-9):
            raise ProbeOutOfRegime(f"probe at distance {dist} < r = {r}")
        b = blocks.block_increment(probe, f_star, data, p).values
        thr = gamma1 * dist * dist
        dists.append(dist)
        fracs.append(float(np.count_nonzero(b >= thr)) / p.n)
        meds.append(blocks.median(b))
    return _condition_report("increment_lower", dists, fracs, meds, fraction_threshold)


def _check_condition_two_ref(data, p, f_star, probes, gamma2, r, design, fraction_threshold=0.9):
    band = gamma2 * r * r
    dists, fracs, meds = [], [], []
    for probe in map(LinearPredictor, probes):
        dist = population_l2_distance(probe, f_star, design)
        if dist >= r * (1.0 + 1e-9):
            raise ProbeOutOfRegime(f"probe at distance {dist} >= r = {r}")
        dev = np.abs(blocks.multiplier_component(probe, f_star, data, p).values)
        dists.append(dist)
        fracs.append(float(np.count_nonzero(dev <= band)) / p.n)
        meds.append(blocks.median(dev))
    return _condition_report("multiplier_band", dists, fracs, meds, fraction_threshold)


# ---------------------------------------------------------------------------
# norming functionals and the Delta estimate
# ---------------------------------------------------------------------------

_DIMS = (1, 3, 6, 12)


def _reg(kind, d):
    return Regularizer.l1() if kind == "l1" else Regularizer.slope(default_slope_weights(d))


def _awkward_vectors(rng, k, d):
    """Rows with zero entries and ties in |v|, from a few levels."""
    levels = np.array([0.0, 0.5, 1.0, 2.0])
    v = rng.choice(levels, size=(k, d)) * rng.choice([-1.0, 1.0], size=(k, d))
    v[: k // 2] += rng.standard_normal((k // 2, d)) * (rng.uniform(size=(k // 2, d)) < 0.3)
    return v


@pytest.mark.parametrize("kind", ["l1", "slope"])
@pytest.mark.parametrize("d", _DIMS)
def test_broadcast_norming_functional_matches_rows(kind, d):
    rng = np.random.default_rng(d)
    reg = _reg(kind, d)
    vs = _awkward_vectors(rng, 7, d)
    dirs = _awkward_vectors(rng, 9, d)
    ref = np.array([[_norming_ref(reg, v, u) for u in dirs] for v in vs])
    np.testing.assert_array_equal(norming_functional(reg, vs[:, None, :], dirs), ref)
    for i, v in enumerate(vs):
        np.testing.assert_array_equal(norming_functional(reg, v, dirs), ref[i])
        np.testing.assert_array_equal(norming_functional(reg, v, dirs[2]), ref[i, 2])
    np.testing.assert_array_equal(
        norming_functional(reg, vs[0]), _norming_ref(reg, vs[0], np.zeros(d))
    )


def test_norming_functional_rejects_other_norms_and_dimensions():
    with pytest.raises(ConfigError):
        norming_functional(Regularizer.none(), np.ones((2, 3)), np.ones(3))
    with pytest.raises(DimensionError):
        norming_functional(Regularizer.slope(d=4), np.ones((2, 3)), np.ones(3))


def _f_stars(d, reg):
    """f* = 0 (v = 0 joins the candidates), f* with psi(f*) = rho / 20
    (exactly for l1: v = 0 still joins for the center f*), a vector with zero
    entries whose signs come from the direction, and one with ties in |v|."""
    zeros = np.zeros(d)
    edge = np.zeros(d)
    edge[0] = 0.05 / (1.0 if reg.kind == "l1" else reg.weights[0])
    sparse = np.zeros(d)
    sparse[0] = 1.5
    ties = np.where(np.arange(d) % 2 == 0, 0.7, -0.7)
    return {"zero": zeros, "edge": edge, "sparse": sparse, "ties": ties}


@pytest.mark.parametrize("kind", ["l1", "slope"])
@pytest.mark.parametrize("d", _DIMS)
@pytest.mark.parametrize("f_kind", ["zero", "edge", "sparse", "ties"])
def test_estimate_delta_matches_loop(kind, d, f_kind):
    reg = _reg(kind, d)
    f_star = LinearPredictor(_f_stars(d, reg)[f_kind])
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    for design, r in ((DesignSpec.identity(d), 2.0), (DesignSpec(A @ A.T + np.eye(d)), 1.5)):
        for seed in range(2):
            args = (reg, f_star, 1.0, r, design)
            kw = dict(budget=12, seed=seed, n_centers=4, n_norming=6)
            got = estimate_delta(*args, **kw)
            assert got == _estimate_delta_ref(*args, **kw)
            assert got.n_feasible > 0


@pytest.mark.parametrize("d", [1, 3, 24])
@pytest.mark.parametrize("budget", [0, 1, 200])
def test_delta_directions_match_loop(monkeypatch, d, budget):
    # The steps estimate_delta forms, caught where it takes their L2 norms,
    # against rho times the reference's unit directions, byte for byte.  A
    # Generator given as the seed is the one default_rng hands back, so its
    # state after the call shows what the draws consumed.  With f* = 0 and
    # r < rho, which steps are feasible depends on the drawn directions.
    reg = Regularizer.l1()
    args = (reg, LinearPredictor(np.zeros(d)), 1.0, 0.8, DesignSpec.identity(d))
    seen = []
    sq_distances = verify.population_sq_distances

    def catch(steps, center, design):
        seen.append(steps.copy())
        return sq_distances(steps, center, design)

    monkeypatch.setattr(verify, "population_sq_distances", catch)
    for seed in range(3):
        seen.clear()
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = estimate_delta(*args, budget=budget, seed=got_rng, n_centers=4, n_norming=6)
        _ball_offsets_ref(reg, d, 1.0 / 40.0, 3, ref_rng)
        ref = np.array([1.0 * _psi_unit_ref(reg, u) for u in _delta_directions_ref(d, budget, ref_rng)])
        _ball_offsets_ref(reg, d, 1.0 / 20.0, 6, ref_rng)
        assert [(s.shape, s.tobytes()) for s in seen] == [(ref.shape, ref.tobytes())]
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert got == _estimate_delta_ref(*args, budget, np.random.default_rng(seed), 4, 6)
        assert got.n_candidates == 2 * d + budget
        if d > 1 and budget == 200:
            assert 0 < got.n_feasible < got.n_centers * got.n_candidates


class _ZeroFirstNormals(np.random.Generator):
    """A Generator whose standard_normal draws have an all-zero first row."""

    def standard_normal(self, size=None, *args, **kwargs):
        out = super().standard_normal(size, *args, **kwargs)
        out[:1] = 0.0
        return out


@pytest.mark.parametrize("kind", ["l1", "slope"])
def test_estimate_delta_drops_all_zero_directions(kind):
    # Probability 0 with a real Generator: an all-zero center direction,
    # sparse direction or v direction is dropped, with its radius.
    args = (_reg(kind, 3), LinearPredictor([1.0, -0.5, 2.0]), 1.0, 2.0, DesignSpec.identity(3))
    kw = dict(budget=12, n_centers=4, n_norming=6)
    got = estimate_delta(*args, seed=_ZeroFirstNormals(np.random.PCG64(5)), **kw)
    ref = _estimate_delta_ref(*args, seed=_ZeroFirstNormals(np.random.PCG64(5)), **kw)
    assert got == ref
    assert (got.n_centers, got.n_candidates) == (3, 2 * 3 + 11)
    full = estimate_delta(*args, seed=np.random.default_rng(5), **kw)
    assert (full.n_centers, full.n_candidates) == (4, 2 * 3 + 12)


def test_estimate_delta_counts_pin_the_draw_order():
    # momreg verify's Delta estimate at two seeds of the benchmark's verify
    # config (r = 2), whose every step is feasible, and at r = 0.8, whose
    # feasible count depends on the drawn directions; any change to the
    # draws of estimate_delta moves them.
    pins = {}
    for r in (2.0, 0.8):
        for seed in (1, 2):
            est = estimate_delta(
                Regularizer.l1(), LinearPredictor([1.0, -0.5, 2.0]), 1.0, r,
                DesignSpec.identity(3), budget=200, seed=np.random.SeedSequence([seed, 0, 6]),
            )
            pins[r, seed] = (est.value, est.n_feasible, est.n_candidates)
    assert pins == {
        (2.0, 1): (-1.0, 1648, 206),
        (2.0, 2): (-1.0000000000000002, 1648, 206),
        (0.8, 1): (-1.0, 848, 206),
        (0.8, 2): (-1.0000000000000002, 760, 206),
    }


def test_estimate_delta_memory_does_not_grow_with_the_budget():
    # The steps are evaluated a slice of blocks.row_slices at a time; only
    # the (budget, d) draws and steps grow with the budget.
    args = (Regularizer.slope(d=3), LinearPredictor([1.0, -0.5, 2.0]), 1.0, 2.0,
            DesignSpec.identity(3))

    def peak(budget):
        tracemalloc.start()
        try:
            estimate_delta(*args, budget=budget, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    estimate_delta(*args, budget=20, seed=1)  # keeps one-time allocations out of both peaks
    assert peak(20_000) <= 2 * peak(2_000)


def test_estimate_delta_rejects_bad_counts_and_dimensions():
    args = (Regularizer.l1(), LinearPredictor([1.0, -0.5, 2.0]), 1.0, 2.0, DesignSpec.identity(3))
    for kw in ({"budget": -1}, {"budget": -7}, {"n_centers": 0}, {"n_centers": -2},
               {"n_norming": -1}):
        with pytest.raises(ConfigError):
            estimate_delta(*args, **kw)
    with pytest.raises(DimensionError):
        estimate_delta(Regularizer.l1(), LinearPredictor([1.0, 2.0]), 1.0, 2.0,
                       DesignSpec.identity(3))


@pytest.mark.parametrize("kind", ["l1", "slope"])
def test_estimate_delta_matches_loop_at_default_budget(kind):
    f_star = LinearPredictor([1.0, -0.5, 2.0])
    args = (_reg(kind, 3), f_star, 1.0, 2.0, DesignSpec.identity(3))
    kw = dict(budget=200, seed=11, n_centers=8, n_norming=24)
    assert estimate_delta(*args, **kw) == _estimate_delta_ref(*args, **kw)


def test_estimate_delta_center_on_the_norming_ball_edge():
    # psi(f*) = rho / 20 exactly: v = 0 is a candidate, so with f* the only
    # center every step attains z(delta) = psi(delta) = rho.
    reg = Regularizer.l1()
    f_star = LinearPredictor(_f_stars(3, reg)["edge"])
    assert psi(reg, f_star) == 1.0 / 20.0
    args = (reg, f_star, 1.0, 2.0, DesignSpec.identity(3))
    kw = dict(budget=12, seed=0, n_centers=1, n_norming=6)
    got = estimate_delta(*args, **kw)
    assert got == _estimate_delta_ref(*args, **kw)
    assert got.value == 1.0


@pytest.mark.parametrize("kind", ["l1", "slope"])
def test_estimate_delta_keeps_nan_out_of_the_sup(kind):
    # An infinite rho makes every step infinite, or nan where inf * 0, so
    # every step lies at distance +inf and none is feasible: no nan reaches
    # the estimate.
    args = (_reg(kind, 3), LinearPredictor([1.0, -0.5, 2.0]), math.inf, 2.0, DesignSpec.identity(3))
    kw = dict(budget=12, seed=0, n_centers=3, n_norming=4)
    with np.errstate(invalid="ignore", over="ignore"):
        got = estimate_delta(*args, **kw)
        assert got == _estimate_delta_ref(*args, **kw)
    assert got.value is None and not got.feasible


@pytest.mark.parametrize("kind", ["l1", "slope"])
@pytest.mark.parametrize("rho", [math.inf, 1e308])
def test_estimate_delta_where_the_feasibility_bound_overflows(kind, rho):
    # At the largest r, r (1 + 1e-12) overflows to +inf.  A step that is not
    # finite (rho = inf) is still infeasible, as in the reference, so no inf
    # or nan reaches the estimate; a finite step whose squared norm
    # overflows (rho = 1e308) is still feasible.
    args = (_reg(kind, 3), LinearPredictor([1.0, -0.5, 2.0]), rho, np.finfo(np.float64).max,
            DesignSpec.identity(3))
    kw = dict(budget=12, seed=0, n_centers=3, n_norming=4)
    with np.errstate(invalid="ignore", over="ignore"):
        got = estimate_delta(*args, **kw)
        assert got == _estimate_delta_ref(*args, **kw)
    assert got.feasible == (rho < math.inf)


def test_estimate_delta_without_feasible_steps_matches_loop():
    args = (Regularizer.l1(), LinearPredictor([1.0, 0.0]), 1.0, 1e-6, DesignSpec.identity(2))
    kw = dict(budget=10, seed=0, n_centers=3, n_norming=4)
    got = estimate_delta(*args, **kw)
    assert got == _estimate_delta_ref(*args, **kw)
    assert got.value is None and got.n_centers == 3


# ---------------------------------------------------------------------------
# the two block conditions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 3, 24, 60])
@pytest.mark.parametrize("dense", [False, True])
def test_sphere_probes_match_loop(d, dense):
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    design = DesignSpec(A @ A.T + 0.1 * np.eye(d)) if dense else DesignSpec.identity(d)
    f_star = LinearPredictor(rng.standard_normal(d))
    for count in (0, 1, 7, 200):
        got_rng, ref_rng = np.random.default_rng(count), np.random.default_rng(count)
        got = sample_sphere_probes(f_star, design, 1.7, count, got_rng)
        ref = _sample_sphere_probes_ref(f_star, design, 1.7, count, ref_rng)
        assert got.shape == (count, d) and len(ref) == count
        for a, b in zip(got, ref):
            assert a.tobytes() == b.theta.tobytes()
        # the generators leave in the same state
        assert got_rng.random() == ref_rng.random()


def _assert_same_condition_report(got, ref):
    assert got.to_dict() == ref.to_dict()
    for name in ("distances", "fractions", "median_stats", "per_probe_pass"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.all(a == b)


def _condition_instance(d, N, n, seed, corrupt):
    """Data with a general covariance; with corrupt, a few rows at 1e3 in
    the design and 1e6 in the response."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    design = DesignSpec(A @ A.T + np.eye(d))
    f_star = LinearPredictor(rng.standard_normal(d))
    data = generate(N, d, f_star.theta, design, NoiseSpec("gaussian", 0.5), seed)
    if corrupt:
        X, y = data.features.copy(), data.responses.copy()
        rows = rng.choice(N, size=5, replace=False)
        X[rows[:2]] *= 1e3
        y[rows[2:]] = 1e6
        data = Dataset(X, y)
    return data, make_partition(N, n), f_star, design


# N = 5000 puts 13 probes in each stacked chunk, so 40 probes span four.
@pytest.mark.parametrize(
    "d, N, n, corrupt", [(1, 45, 5, False), (3, 5000, 101, False), (6, 5000, 51, True),
                         (24, 303, 11, True)]
)
def test_condition_checks_match_loop(d, N, n, corrupt):
    data, p, f_star, design = _condition_instance(d, N, n, d, corrupt)
    rng = np.random.default_rng(d + 1)
    far = sample_sphere_probes(f_star, design, 2.0, 40, rng)
    near = sample_sphere_probes(f_star, design, 1.0, 40, rng)
    # a far probe beyond the sphere, and near probes on the sphere's edge
    # and at f* itself
    far = np.vstack([far, f_star.theta + 3.0 * (far[0] - f_star.theta)])
    near = np.vstack([near, f_star.theta])
    args = (data, p, f_star)
    _assert_same_condition_report(
        check_condition_one(*args, far, 0.5, 2.0, design, 0.8),
        _check_condition_one_ref(*args, far, 0.5, 2.0, design, 0.8),
    )
    _assert_same_condition_report(
        check_condition_two(*args, near, 0.2, 2.0, design, 0.7),
        _check_condition_two_ref(*args, near, 0.2, 2.0, design, 0.7),
    )
    for check, ref in ((check_condition_one, _check_condition_one_ref),
                       (check_condition_two, _check_condition_two_ref)):
        _assert_same_condition_report(
            check(*args, [], 0.5, 2.0, design), ref(*args, [], 0.5, 2.0, design)
        )


def test_condition_checks_raise_at_the_first_out_of_regime_probe():
    data, p, f_star, design = _condition_instance(3, 303, 11, 0, False)
    rng = np.random.default_rng(0)
    far = sample_sphere_probes(f_star, design, 2.0, 5, rng)
    near = sample_sphere_probes(f_star, design, 1.0, 5, rng)
    mixed_far = np.concatenate([far[:2], near[3:5], far[2:]])
    mixed_near = np.concatenate([near[:1], far[1:], near])
    args = (data, p, f_star)
    for check, ref, probes, gamma in (
        (check_condition_one, _check_condition_one_ref, mixed_far, 0.5),
        (check_condition_two, _check_condition_two_ref, mixed_near, 0.2),
    ):
        with pytest.raises(ProbeOutOfRegime) as ref_err:
            ref(*args, probes, gamma, 1.5, design)
        with pytest.raises(ProbeOutOfRegime) as got_err:
            check(*args, probes, gamma, 1.5, design)
        assert str(got_err.value) == str(ref_err.value)
        with pytest.raises(DimensionError):
            check(*args, [probes[0], np.zeros(4)], gamma, 1.5, design)


# ---------------------------------------------------------------------------
# lemma_reg_check
# ---------------------------------------------------------------------------


def _check_one_row(report, instance, probe, hypothesis, lhs, rhs, n=None):
    # one far-conclusion row of n blocks (all of them by default)
    n = hypothesis.size if n is None else n
    verify._check_blocks(
        report, np.array([instance]), np.array([probe]), np.array([0]), np.array([n]),
        hypothesis[None], lhs[None], np.array([rhs]),
    )


def test_check_blocks_slack_boundary():
    # violation iff lhs < rhs - 1e-9 max(1, |lhs|, |rhs|), in block order
    rhs = 2.0
    lhs = rhs - np.array([0.0, 1e-9, 3e-9, 6e-9, 1.0, -1.0, 50.0, 3e-9])
    hypothesis = np.array([True, True, True, True, True, True, True, False])
    report = LemmaCheckReport()
    _check_one_row(report, 2, 4, hypothesis, lhs, rhs)
    zeros = dict.fromkeys(("sphere_near", "scaled_far", "scaled_near"), 0)
    assert (report.checked, report.skipped) == ({"far": 7, **zeros}, {"far": 1, **zeros})
    assert [(v.instance, v.probe_index, v.block_index) for v in report.violations] == [
        (2, 4, 2), (2, 4, 3), (2, 4, 4), (2, 4, 6)
    ]
    assert [v.lhs for v in report.violations] == [lhs[2], lhs[3], lhs[4], lhs[6]]
    # below 1 in magnitude the slack stays 1e-9
    report = LemmaCheckReport()
    lhs = np.array([0.5 - 0.8e-9, 0.5 - 2e-9])
    _check_one_row(report, 0, 0, np.ones(2, bool), lhs, 0.5)
    assert [v.block_index for v in report.violations] == [1]
    # padding past a row's n blocks is neither checked nor skipped
    report = LemmaCheckReport()
    _check_one_row(report, 0, 0, np.array([True, False, False]), np.array([0.0, 0.0, np.nan]),
                   1.0, n=2)
    assert (report.checked["far"], report.skipped["far"]) == (1, 1)
    assert [v.block_index for v in report.violations] == [0]


def _assert_same_report(got, ref):
    assert got == ref
    for v in got.violations:
        assert type(v.block_index) is int and type(v.lhs) is np.float64


def test_lemma_reg_check_matches_loop_on_sweep_instances():
    rng = np.random.default_rng(8)
    regimes = set()
    for _ in range(40):
        instance = random_lemma_instance(rng, slope_fraction=0.4)
        got = lemma_reg_check(*instance)
        _assert_same_report(got, _lemma_reg_check_ref(*instance))
        regimes.update(k for k, v in got.checked.items() if v)
    assert regimes == {"far", "sphere_near", "scaled_far", "scaled_near"}


# Injected arithmetic faults: the implications hold in exact arithmetic for
# any data, so only a wrong increment produces violations.  Each fault
# lowers every block increment of f against h by a function of |f - h|.
_FAULTS = {
    "cubic": lambda dist: 0.5 * dist**3,
    "constant": lambda dist: 10.0 if dist > 0.0 else 0.0,
}


def _inject_fault(monkeypatch, fault):
    """Lower every increment row of the shared residual routine, which the
    chunk check and the reference's blocks.block_increment both call, by the
    fault of |f - h|: each of the k increment rows' block sums loses m times
    it."""
    real_sums = blocks._residual_sums

    def faulty_sums(X, y, stack, k, out, noisy=False):
        real_sums(X, y, stack, k, out, noisy)
        shifts = [_FAULTS[fault](float(np.linalg.norm(theta - stack[k]))) for theta in stack[:k]]
        out[:k] -= (X.shape[0] // out.shape[-1]) * np.array(shifts).reshape(k, 1)

    monkeypatch.setattr(blocks, "_residual_sums", faulty_sums)


# Slope instances carry no near probes, which the constant fault needs.
@pytest.mark.parametrize(
    "fault, slope_fraction", [("cubic", 0.0), ("cubic", 1.0), ("constant", 0.0)]
)
def test_lemma_reg_check_matches_loop_on_violations(monkeypatch, slope_fraction, fault):
    # the chunk check and the reference both see the same fault on every
    # increment row
    _inject_fault(monkeypatch, fault)
    rng = np.random.default_rng(3)
    conclusions = set()
    for _ in range(6):
        probes, f_star, data, p, params, lam, reg, design = random_lemma_instance(
            rng, slope_fraction
        )
        # One near or scaled probe again, with a nonzero expected multiplier:
        # it moves the band the near hypothesis mask tests.
        probes = probes + [
            LemmaProbe(pr.theta, pr.regime, pr.alpha, expected_multiplier=0.05)
            for pr in probes if pr.regime != REGIME_FAR
        ][:1]
        instance = (probes, f_star, data, p, params, lam, reg, design)
        got = lemma_reg_check(*instance)
        _assert_same_report(got, _lemma_reg_check_ref(*instance))
        conclusions.update(v.conclusion for v in got.violations)
    assert conclusions


def test_lemma_reg_check_matches_loop_at_the_regime_boundaries():
    # Probes at L2 distance exactly r (far, sphere_near and scaled, the
    # last of which takes the far branch) and alphas on regimes that ignore
    # them: with gamma1 = 0.9 many blocks of the far probe sit between the
    # far hypothesis and three times its right side.
    design = DesignSpec.identity(6)
    f_star = LinearPredictor(np.r_[1.0, np.zeros(5)])
    data = generate(90, 6, f_star.theta, design, NoiseSpec("gaussian", 0.1), 1)
    params = ConditionParams(gamma1=0.9, gamma2=0.05, r=0.5, rho=0.5)
    on_r = f_star.theta + np.r_[0.0, 0.5, 0, 0, 0, 0]
    inside = f_star.theta + np.r_[0.0, 0.25, 0.25, 0, 0, 0]
    probes = [
        LemmaProbe(on_r, REGIME_FAR, alpha=3.0),
        LemmaProbe(on_r, REGIME_SPHERE_NEAR, alpha=2.0),
        LemmaProbe(on_r, REGIME_SCALED, alpha=2.0),
        LemmaProbe(inside, REGIME_SPHERE_NEAR, alpha=4.0),
        LemmaProbe(inside, REGIME_SCALED, alpha=2.0),
    ]
    instance = (probes, f_star, data, make_partition(90, 9), params, 0.1, Regularizer.l1(), design)
    got = lemma_reg_check(*instance)
    _assert_same_report(got, _lemma_reg_check_ref(*instance))
    assert got.skipped["sphere_near"] >= 9 and got.skipped["scaled_far"] < 9
    assert min(got.checked.values()) > 0


def test_lemma_reg_check_runs_block_checks_for_each_distinct_probe():
    design = DesignSpec.identity(6)
    f_star = LinearPredictor(np.r_[1.0, np.zeros(5)])
    data = generate(90, 6, f_star.theta, design, NoiseSpec("gaussian", 0.1), 0)
    p = make_partition(90, 9)
    params = ConditionParams(gamma1=0.6, gamma2=0.05, r=0.5, rho=1.0)
    lam = sum(lambda_window(params)) / 2
    good = LemmaProbe(f_star.theta + np.r_[0.0, 1.0, 0, 0, 0, 0], REGIME_FAR)
    # a repeated theta is fine; a probe of the wrong dimension still raises
    with pytest.raises(DimensionError):
        lemma_reg_check(
            [good, good, LemmaProbe(np.zeros(7), REGIME_FAR)],
            f_star, data, p, params, lam, Regularizer.l1(), design,
        )
    # a probe whose block increments overflow fails the BlockVector check
    huge = LemmaProbe(f_star.theta + np.r_[0.0, 1e200, 0, 0, 0, 0], REGIME_SCALED, alpha=2.0)
    with pytest.raises(InvalidInput), np.errstate(over="ignore", invalid="ignore"):
        lemma_reg_check(
            [good, huge], f_star, data, p, params, lam, Regularizer.l1(), design,
        )


def test_lemma_reg_check_matches_loop_on_a_dense_design_and_slope_weights():
    # The sweep draws only identity designs and default slope weights; here
    # a dense design, other weights, a repeated theta and a scaled probe off
    # the psi-sphere at alpha 1e300, which must form no statistics.
    d = 6
    A = np.random.default_rng(2).standard_normal((d, d))
    design = DesignSpec(A @ A.T + np.eye(d))
    reg = Regularizer.slope(np.linspace(1.5, 1.0, d))
    assert not np.array_equal(reg.weights, default_slope_weights(d))
    f_star = LinearPredictor(np.r_[1.0, -0.5, np.zeros(d - 2)])
    data = generate(165, d, f_star.theta, design, NoiseSpec("gaussian", 0.1), 4)
    params = ConditionParams(gamma1=0.6, gamma2=0.05, r=0.8, rho=0.5)
    lam = sum(lambda_window(params)) / 2

    def on_sphere(u):
        return f_star.theta + params.rho * u / psi(reg, u)

    far = on_sphere(np.eye(d)[4])
    near = on_sphere(np.r_[0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    off = f_star.theta + 0.5 * (far - f_star.theta)
    probes = [
        LemmaProbe(far, REGIME_FAR),
        LemmaProbe(on_sphere(-np.eye(d)[4]), REGIME_FAR),
        LemmaProbe(far, REGIME_FAR),
        LemmaProbe(near, REGIME_SPHERE_NEAR),
        LemmaProbe(far, REGIME_SCALED, alpha=2.0),
        LemmaProbe(near, REGIME_SCALED, alpha=4.0),
        LemmaProbe(off, REGIME_SCALED, alpha=1e300),
    ]
    instance = (probes, f_star, data, make_partition(165, 11), params, lam, reg, design)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lemma_reg_check(*instance)
        ref = _lemma_reg_check_ref(*instance)
    _assert_same_report(got, ref)
    assert min(got.checked.values()) > 0
    assert got.skipped["scaled_far"] >= 11  # the probe off the sphere


def test_probe_statistics_once_per_distinct_theta(monkeypatch):
    # one residual pass per instance, with one row per distinct theta
    rows = {"block_increments": [], "multiplier_components": []}
    real_sums = blocks._residual_sums

    def counting(X, y, stack, k, out, noisy=False):
        rows["block_increments"].append(k)
        rows["multiplier_components"].append(len(stack) - k - 1)
        real_sums(X, y, stack, k, out, noisy)

    monkeypatch.setattr(blocks, "_residual_sums", counting)
    rng = np.random.default_rng(5)
    for _ in range(20):
        probes, f_star, *rest = random_lemma_instance(rng, slope_fraction=0.5)
        scaled = sum(pr.regime == REGIME_SCALED for pr in probes)
        # a scaled probe off the psi-sphere is skipped without forming f
        off = f_star.theta + 0.5 * (probes[-1].theta - f_star.theta)
        probes = probes + [LemmaProbe(off, REGIME_SCALED, alpha=2.0)]
        for calls in rows.values():
            calls.clear()
        lemma_reg_check(probes, f_star, *rest)
        distinct = len({pr.theta.tobytes() for pr in probes})
        assert rows["multiplier_components"] == [distinct]
        # one more increment row per scaled probe on the sphere, at
        # f* + alpha (h - f*)
        assert rows["block_increments"] == [distinct + scaled]


def test_probe_statistics_reject_probes_of_the_wrong_shape():
    f_star = LinearPredictor(np.zeros(3))
    design = DesignSpec.identity(3)
    stack = "probes must be a (k, 3) stack of thetas"
    cases = [
        ([np.zeros(3), np.zeros(4)], stack),
        ([[0.0, 0.0, 0.0], [0.0, 0.0]], stack),
        ([np.zeros(3), np.zeros((1, 3))], stack),
        ([np.zeros(4), np.zeros(4)], stack + ", got (2, 4)"),
        (np.zeros((2, 4)), stack + ", got (2, 4)"),
        ([np.zeros((1, 3)), np.zeros((1, 3))], stack + ", got (2, 1, 3)"),
        (np.zeros((2, 1, 3)), stack + ", got (2, 1, 3)"),
        (np.zeros(3), stack + ", got (3,)"),
    ]
    for thetas, message in cases:
        with pytest.raises(DimensionError) as excinfo:
            verify._probe_geometry(thetas, f_star, design)
        assert str(excinfo.value) == message
    for empty in ([], np.zeros((0, 3))):
        thetas, dists = verify._probe_geometry(empty, f_star, design)
        assert thetas.shape == (0, 3) and dists.shape == (0,)
    with pytest.raises(InvalidInput):
        verify._probe_geometry([[0.0, np.nan, 0.0]], f_star, design)


# ---------------------------------------------------------------------------
# the randomized lemma sweep
# ---------------------------------------------------------------------------


def _lemma_instances_ref(rng, count, slope_fraction):
    """_draw_lemma_instances as the arguments of lemma_reg_check: the same
    Generator calls, then each instance built on its own, with an argsort
    of its own keys for its permutation, psi for every probe norm and its X
    and y sliced from the chunk's two standard normal arrays."""
    signs = np.array([-1.0, 1.0])
    d = rng.integers(8, 25, count)
    s = rng.integers(1, 4, count)
    values = rng.uniform(0.5, 2.0, (count, 3)) * signs[rng.integers(0, 2, (count, 3))]
    slope = rng.random(count) < slope_fraction
    regs = [
        Regularizer.slope(default_slope_weights(int(d_i))) if on else Regularizer.l1()
        for d_i, on in zip(d, slope)
    ]
    w1 = np.array([float(reg.weights[0]) if on else 1.0 for reg, on in zip(regs, slope)])
    gamma1 = rng.uniform(0.4, 0.9, count)
    gamma2 = rng.uniform(0.2, 1.0, count) * gamma1 / 6.0
    r = rng.uniform(0.3, 1.0, count)
    rho = rng.uniform(1.05, 3.0, count) * r * w1
    params = [ConditionParams(float(a), float(b), float(c), float(e))
              for a, b, c, e in zip(gamma1, gamma2, r, rho)]
    window = np.array([lambda_window(p) for p in params]).reshape(count, 2)
    at_hi = rng.random(count) < 0.1
    between = rng.uniform(window[:, 0], window[:, 1])
    n = np.array([5, 7, 9, 11])[rng.integers(0, 4, count)]
    m = rng.integers(8, 31, count)
    scale = rng.uniform(0.01, 0.3, count) * r
    keys = rng.random((count, 24))
    far = s[:, None] + rng.integers(0, (d - s)[:, None], (count, 3))
    far_signs = signs[rng.integers(0, 2, (count, 3))]
    Z = rng.standard_normal(int(np.sum(n * m * d)))
    eps = rng.standard_normal(int(np.sum(n * m)))

    instances, at, first = [], 0, 0
    for i in range(count):
        d_i, s_i, N = int(d[i]), int(s[i]), int(n[i] * m[i])
        rho_i, r_i, reg = float(rho[i]), float(r[i]), regs[i]
        perm = np.argsort(keys[i, :d_i], kind="stable")
        f_star = np.zeros(d_i)
        f_star[perm[:s_i]] = values[i, :s_i]
        X = Z[at : at + N * d_i].reshape(N, d_i)
        data = Dataset(X, X @ f_star + scale[i] * eps[first : first + N])
        at, first = at + N * d_i, first + N

        def on_sphere(u):
            return f_star + rho_i * u / psi(reg, u)

        def one_hot(j):
            u = np.zeros(d_i)
            u[perm[far[i, j]]] = far_signs[i, j]
            return on_sphere(u)

        probes = [LemmaProbe(one_hot(0), REGIME_FAR), LemmaProbe(one_hot(1), REGIME_FAR)]
        if not slope[i]:
            q = rho_i / r_i
            k = min(d_i - s_i, max(int(math.ceil(q * q * 1.3)) + 1, 2))
            if k >= 2 and rho_i / math.sqrt(k) < r_i:
                u = np.zeros(d_i)
                u[perm[s_i : s_i + k]] = 1.0
                h = on_sphere(u)
                probes.append(LemmaProbe(h, REGIME_SPHERE_NEAR))
                probes += [LemmaProbe(h, REGIME_SCALED, alpha=a) for a in (2.0, 4.0, 8.0)]
        h = one_hot(2)
        probes += [LemmaProbe(h, REGIME_SCALED, alpha=a) for a in (2.0, 4.0, 8.0)]
        lam = window[i, 1] if at_hi[i] else between[i]
        instances.append((
            probes, LinearPredictor(f_star), data, make_partition(N, int(n[i])), params[i],
            float(lam), reg, DesignSpec.identity(d_i),
        ))
    return instances


def _bits(a):
    return (a.dtype, a.shape, a.tobytes())


def _instance_key(instance):
    probes, f_star, data, p, params, lam, reg, design = instance
    return (
        [(_bits(pr.theta), pr.regime, pr.alpha, pr.expected_multiplier) for pr in probes],
        _bits(f_star.theta),
        _bits(data.features),
        _bits(data.responses),
        p,
        params,
        (type(lam), lam),
        reg.kind,
        None if reg.weights is None else _bits(reg.weights),
        _bits(design.covariance),
    )


def _drawn(rng, count, slope_fraction):
    """The instances of one _draw_lemma_instances chunk, as the arguments of
    lemma_reg_check."""
    chunk = verify._draw_lemma_instances(rng, count, slope_fraction)
    return [_check_args(chunk, i) for i in range(count)]


def _used_rows(chunk, i):
    """The rows of instance i's stacked thetas that its probes use, per probe."""
    rows, codes = chunk.probes[:2, i].astype(int)
    return rows[codes >= 0]


@pytest.mark.parametrize("slope_fraction", [0.0, 0.25, 1.0])
def test_draw_lemma_instances_match_the_per_instance_form(slope_fraction):
    regimes = set()
    for seed, count in enumerate([1, 7, 32, 45]):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _drawn(got_rng, count, slope_fraction)
        ref = _lemma_instances_ref(ref_rng, count, slope_fraction)
        assert [_instance_key(inst) for inst in got] == [_instance_key(inst) for inst in ref]
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        regimes.update(pr.regime for inst in got for pr in inst[0])
    assert (REGIME_SPHERE_NEAR in regimes) == (slope_fraction < 1.0)
    # random_lemma_instance is the instance of a one-instance chunk
    assert _instance_key(random_lemma_instance(np.random.default_rng(9), slope_fraction)) == (
        _instance_key(_lemma_instances_ref(np.random.default_rng(9), 1, slope_fraction)[0])
    )


def test_lemma_sweep_counts_pin_the_draw_order():
    # The counts of momreg verify's sweep for one seed; any change to the
    # draws of _draw_lemma_instances or to its chunk size moves them.
    report = lemma_sweep(200, seed=8)
    assert report.checked == {
        "far": 2713, "sphere_near": 929, "scaled_far": 3966, "scaled_near": 2787
    }
    assert report.skipped == {
        "far": 531, "sphere_near": 318, "scaled_far": 900, "scaled_near": 954
    }
    assert report.violations == []


def test_lemma_sweep_numbers_the_instances_of_violations(monkeypatch):
    # the constant fault of test_lemma_reg_check_matches_loop_on_violations
    _inject_fault(monkeypatch, "constant")
    report = lemma_sweep(3, seed=3, slope_fraction=0.0)
    expected = []
    for i, instance in enumerate(_drawn(np.random.default_rng(3), 3, 0.0)):
        violations = lemma_reg_check(*instance).violations
        assert violations and {v.instance for v in violations} == {0}
        expected.extend(dataclasses.replace(v, instance=i) for v in violations)
    assert report.violations == expected
    # positional construction leaves the instance at 0
    assert LemmaViolation(1, 2, "far", 0.0, 1.0).instance == 0


def _drawn_sweep(count, seed, slope_fraction):
    """The chunks of lemma_sweep(count, seed, slope_fraction), as drawn."""
    rng = np.random.default_rng(seed)
    return [
        verify._draw_lemma_instances(rng, min(verify.LEMMA_CHUNK, count - start), slope_fraction)
        for start in range(0, count, verify.LEMMA_CHUNK)
    ]


def _sweep_instances(count, seed, slope_fraction):
    """The instances of lemma_sweep(count, seed, slope_fraction), as the
    arguments of lemma_reg_check."""
    return [_check_args(chunk, i) for chunk in _drawn_sweep(count, seed, slope_fraction)
            for i in range(len(chunk.n))]


def _lemma_sweep_ref(count, seed, slope_fraction):
    """lemma_sweep as the per-instance loop of the reference check."""
    total = LemmaCheckReport()
    for i, instance in enumerate(_sweep_instances(count, seed, slope_fraction)):
        report = _lemma_reg_check_ref(*instance)
        total.violations += [dataclasses.replace(v, instance=i) for v in report.violations]
        for key in _CONCLUSIONS:
            total.checked[key] += report.checked[key]
            total.skipped[key] += report.skipped[key]
    return total


# A small draw chunk splits the sweep into several chunks, the last one
# shorter; the reference draws with the same chunk.
@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("slope_fraction", [0.0, 0.25, 1.0])
def test_lemma_sweep_matches_the_per_instance_loop(monkeypatch, slope_fraction, chunk):
    if chunk is not None:
        monkeypatch.setattr(verify, "LEMMA_CHUNK", chunk)
    got = lemma_sweep(40, seed=11, slope_fraction=slope_fraction)
    ref = _lemma_sweep_ref(40, 11, slope_fraction)
    assert (got.checked, got.skipped) == (ref.checked, ref.skipped)
    assert got.violations == ref.violations == []


@pytest.mark.parametrize("chunk", [None, 7])
def test_lemma_sweep_matches_the_per_instance_loop_on_violations(monkeypatch, chunk):
    # Violations in instances of different n exercise the padding of the
    # chunk and its instance, probe and block order; a small chunk numbers
    # the violations of later chunks from their offset.
    _inject_fault(monkeypatch, "cubic")
    if chunk is not None:
        monkeypatch.setattr(verify, "LEMMA_CHUNK", chunk)
    got = lemma_sweep(16, seed=2, slope_fraction=0.25)
    ref = _lemma_sweep_ref(16, 2, 0.25)
    assert (got.checked, got.skipped) == (ref.checked, ref.skipped)
    _assert_same_report(got, ref)
    n = [instance[3].n for instance in _sweep_instances(16, 2, 0.25)]
    assert len({n[v.instance] for v in got.violations}) > 1


_C = verify.LEMMA_CHUNK


@pytest.mark.parametrize("count", [0, 1, _C - 1, _C, _C + 1, 2 * _C + 1])
def test_lemma_sweep_matches_the_per_instance_loop_at_chunk_edges(count):
    got = lemma_sweep(count, seed=4)
    ref = _lemma_sweep_ref(count, 4, 0.25)
    assert (got.checked, got.skipped) == (ref.checked, ref.skipped)
    assert got.violations == ref.violations == []
    assert (got.total_checked > 0) == (count > 0)
    # The sweep checks an instance's stacked thetas as drawn, repeats
    # included, and the reference checks each probe's theta on its own.
    repeats = []
    for chunk in _drawn_sweep(count, 4, 0.25):
        for i in range(len(chunk.n)):
            used = set(_used_rows(chunk, i))
            repeats.append(len({chunk.thetas[i, row].tobytes() for row in used}) < len(used))
    assert any(repeats) == (count >= _C - 1)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 40),
    slope_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_draw_lemma_instances_meet_their_ranges(seed, count, slope_fraction):
    chunk = verify._draw_lemma_instances(np.random.default_rng(seed), count, slope_fraction)
    for i in range(count):
        probes, f_star, data, p, params, lam, reg, design = _check_args(chunk, i)
        d = f_star.dim
        support = np.flatnonzero(f_star.theta)
        assert 8 <= d <= 24 and 1 <= support.size <= 3
        assert p.n in (5, 7, 9, 11) and 8 <= p.m <= 30
        lo, hi = lambda_window(params)
        assert lo <= lam <= hi
        rows = _used_rows(chunk, i)
        regimes = [pr.regime for pr in probes]
        # each probe's theta is a stacked one, and the probes use rows 0-2,
        # with a near probe row 3 as well
        assert [pr.theta.tobytes() for pr in probes] == [
            chunk.thetas[i, row, :d].tobytes() for row in rows
        ]
        assert sorted(set(rows)) == list(range(4 if REGIME_SPHERE_NEAR in regimes else 3))
        for probe in probes:
            offset = probe.theta - f_star.theta
            assert psi(reg, offset) == pytest.approx(params.rho, rel=1e-12, abs=0.0)
            dist = population_l2_distance(LinearPredictor(probe.theta), f_star, design)
            moved = np.flatnonzero(offset)
            if moved.size == 1:  # a far probe, or a scaled one on the far branch
                assert dist >= params.r
            else:  # a near probe, or a scaled one on the near branch
                assert reg.kind == "l1" and probe.regime != REGIME_FAR
                assert (offset[moved] > 0.0).all() and not np.isin(moved, support).any()
                assert dist < params.r
        assert data.features.shape == (p.n * p.m, d) and data.responses.shape == (p.n * p.m,)
        assert np.isfinite(data.features).all() and np.isfinite(data.responses).all()


def test_lemma_sweep_memory_does_not_grow_with_the_count():
    # Both counts span more than one chunk of LEMMA_CHUNK instances.
    def peak(count):
        tracemalloc.start()
        try:
            lemma_sweep(count, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    lemma_sweep(40, seed=1)  # keeps one-time allocations out of both peaks
    assert peak(400) <= 1.5 * peak(40)
