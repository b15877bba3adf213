import math

import numpy as np
import pytest

from momreg import (
    ConditionParams,
    ConfigError,
    Dataset,
    DesignSpec,
    HypothesisViolated,
    InvalidInput,
    LemmaProbe,
    LinearPredictor,
    NoiseSpec,
    ObjectiveConfig,
    ProbeOutOfRegime,
    Regularizer,
    SolverConfig,
    check_condition_one,
    check_condition_two,
    count_blocks_satisfying,
    default_slope_weights,
    estimate_delta,
    excess_risk,
    generate,
    lambda_window,
    lemma_reg_check,
    lemma_sweep,
    make_partition,
    median,
    mom_minimax_fit,
    norming_functional,
    psi,
    sample_sphere_probes,
    support_recovery_error,
    theorem1_check,
    theorem2_check,
)
from momreg.verify import REGIME_FAR, REGIME_SCALED, REGIME_SPHERE_NEAR


class TestExcessRisk:
    def test_zero_at_truth(self):
        design = DesignSpec.identity(3)
        theta = np.array([1.0, 2.0, 3.0])
        assert excess_risk(theta, theta, design) == 0.0

    def test_hand_arithmetic(self):
        design = DesignSpec.identity(2)
        assert excess_risk(np.array([0.3, 0.4]), np.zeros(2), design) == pytest.approx(0.25)

    def test_quadratic_scaling(self):
        design = DesignSpec(np.array([[2.0, 0.1], [0.1, 1.0]]))
        rng = np.random.default_rng(0)
        base = rng.standard_normal(2)
        one = excess_risk(base, np.zeros(2), design)
        four = excess_risk(2.0 * base, np.zeros(2), design)
        np.testing.assert_allclose(four, 4.0 * one, rtol=1e-12)

    def test_positive_unless_equal(self):
        design = DesignSpec(np.array([[2.0, 0.5], [0.5, 1.0]]))
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.standard_normal((2, 2))
            val = excess_risk(a, b, design)
            assert val > 0.0 or np.array_equal(a, b)


class TestSampleSphereProbes:
    def test_exact_distance_under_general_design(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4))
        design = DesignSpec(A @ A.T + 4 * np.eye(4))
        f_star = LinearPredictor(rng.standard_normal(4))
        from momreg import population_l2_distance

        probes = sample_sphere_probes(f_star, design, 1.7, 20, rng)
        assert probes.shape == (20, 4)
        for theta in probes:
            d = population_l2_distance(LinearPredictor(theta), f_star, design)
            np.testing.assert_allclose(d, 1.7, rtol=1e-10)


def _conditions_instance(seed=0, N=2000, d=3, n=41, sigma=1.0):
    design = DesignSpec.identity(d)
    theta_star = np.arange(1.0, d + 1.0)
    data = generate(N, d, theta_star, design, NoiseSpec("gaussian", sigma), seed)
    return data, make_partition(N, n), LinearPredictor(theta_star), design


class TestConditionOne:
    def test_tiny_gamma1_gives_fraction_one_noiseless(self):
        data, p, f_star, design = _conditions_instance(sigma=1e-12)
        rng = np.random.default_rng(3)
        probes = sample_sphere_probes(f_star, design, 0.5, 20, rng)
        rep = check_condition_one(data, p, f_star, probes, 1e-9, 0.5, design)
        np.testing.assert_array_equal(rep.fractions, np.ones(20))
        assert rep.passed

    def test_probe_at_f_star_rejected(self):
        data, p, f_star, design = _conditions_instance()
        with pytest.raises(ProbeOutOfRegime):
            check_condition_one(data, p, f_star, [f_star.theta], 0.5, 0.5, design)

    def test_monte_carlo_regime(self):
        # sweep-frozen desk-scale regime: comfortable fractions
        data, p, f_star, design = _conditions_instance(seed=4, N=5000, n=101)
        rng = np.random.default_rng(4)
        probes = sample_sphere_probes(f_star, design, 2.0, 50, rng)
        rep = check_condition_one(data, p, f_star, probes, 0.5, 2.0, design)
        assert np.all(rep.fractions >= 0.9)


class TestConditionTwo:
    def test_probe_equal_f_star_all_blocks(self):
        data, p, f_star, design = _conditions_instance()
        rep = check_condition_two(data, p, f_star, [f_star.theta], 0.2, 1.0, design)
        np.testing.assert_array_equal(rep.fractions, [1.0])

    def test_far_probe_rejected(self):
        data, p, f_star, design = _conditions_instance()
        rng = np.random.default_rng(5)
        far = sample_sphere_probes(f_star, design, 2.0, 1, rng)
        with pytest.raises(ProbeOutOfRegime):
            check_condition_two(data, p, f_star, far, 0.2, 1.0, design)

    def test_monte_carlo_regime(self):
        data, p, f_star, design = _conditions_instance(seed=6, N=5000, n=101)
        rng = np.random.default_rng(6)
        probes = sample_sphere_probes(f_star, design, 1.0, 50, rng)
        rep = check_condition_two(data, p, f_star, probes, 0.2, 2.0, design)
        assert np.all(rep.fractions >= 0.9)

    def test_noiseless_degenerate_documented(self):
        # noiseless: multiplier is identically 0, deviations vanish
        data, p, f_star, design = _conditions_instance(sigma=1e-300)
        rng = np.random.default_rng(7)
        probes = sample_sphere_probes(f_star, design, 0.5, 5, rng)
        rep = check_condition_two(data, p, f_star, probes, 0.01, 1.0, design)
        assert np.all(rep.fractions == 1.0)


def test_phi_at_f_star_bounded_when_conditions_hold():
    # proof-step diagnostic: with the conditions holding at (g1, g2, r),
    # every explored witness g keeps the objective at f* below g2 * r^2
    from momreg import AdversaryBudget, med_increment, phi_hat

    data, p, f_star, design = _conditions_instance(seed=12, N=5000, n=101)
    params = ConditionParams(0.5, 0.2, 2.0)
    res = phi_hat(
        f_star, data, p, AdversaryBudget(4, 80), seed=0, collect_explored=True
    )
    bound = params.gamma2 * params.r * params.r
    assert res.value <= bound
    for g in res.explored:
        assert med_increment(f_star, LinearPredictor(g), data, p) <= bound


def test_median_vs_majority_consistency():
    # report fraction > 1/2 forces the median statistic over the same line
    data, p, f_star, design = _conditions_instance(seed=8)
    rng = np.random.default_rng(8)
    far = sample_sphere_probes(f_star, design, 1.5, 30, rng)
    rep1 = check_condition_one(data, p, f_star, far, 0.4, 1.5, design)
    for dist, frac, med_stat in zip(rep1.distances, rep1.fractions, rep1.median_stats):
        if frac > 0.5:
            assert med_stat >= 0.4 * dist * dist
    near = sample_sphere_probes(f_star, design, 0.75, 30, rng)
    rep2 = check_condition_two(data, p, f_star, near, 0.2, 1.5, design)
    band = 0.2 * 1.5 * 1.5
    for frac, med_stat in zip(rep2.fractions, rep2.median_stats):
        if frac > 0.5:
            assert med_stat <= band


class TestTheorem1Check:
    def test_theta_star_passes_any_radius(self):
        design = DesignSpec.identity(2)
        theta = np.ones(2)
        for r in (1e-6, 1.0, 100.0):
            params = ConditionParams(0.5, 0.2, r)
            diag = theorem1_check(theta, theta, design, params)
            assert diag.passed

    def test_distance_check_fails_at_2r(self):
        design = DesignSpec.identity(1)
        params = ConditionParams(0.5, 0.2, 1.0)
        diag = theorem1_check(np.array([2.0]), np.array([0.0]), design, params)
        assert not diag.distance_ok

    def test_hypothesis_violated(self):
        design = DesignSpec.identity(1)
        with pytest.raises(HypothesisViolated):
            theorem1_check(
                np.ones(1), np.ones(1), design, ConditionParams(0.2, 0.5, 1.0)
            )

    def test_conditions_flag(self):
        data, p, f_star, design = _conditions_instance(seed=9)
        rng = np.random.default_rng(9)
        params = ConditionParams(0.5, 0.2, 2.0)
        far = sample_sphere_probes(f_star, design, 2.0, 5, rng)
        near = sample_sphere_probes(f_star, design, 1.0, 5, rng)
        rep1 = check_condition_one(data, p, f_star, far, 0.5, 2.0, design)
        rep2 = check_condition_two(data, p, f_star, near, 0.2, 2.0, design)
        diag = theorem1_check(
            f_star.theta, f_star.theta, design, params, (rep1, rep2)
        )
        assert diag.conditions_passed == (rep1.passed and rep2.passed)
        assert theorem1_check(
            f_star.theta, f_star.theta, design, params
        ).conditions_passed is None


class TestTheorem2Check:
    def test_theta_star_passes_any_constants(self):
        design = DesignSpec.identity(3)
        params = ConditionParams(0.8, 0.1, 0.25, rho=0.2)
        theta = np.array([1.0, 0.0, -1.0])
        diag = theorem2_check(theta, theta, design, params, Regularizer.l1(), 0.1, 0.1, 0.1)
        assert diag.passed

    def test_misspecified_lambda_sensitivity(self):
        # lambda at 100x the window top over-shrinks; the psi check reports it
        design = DesignSpec.identity(20)
        theta_star = np.zeros(20)
        theta_star[:3] = 1.0
        params = ConditionParams(gamma1=0.8, gamma2=0.1, r=0.05, rho=0.05)
        _, hi = lambda_window(params)
        data = generate(400, 20, theta_star, design, NoiseSpec("gaussian", 1.0), 10)
        p = make_partition(400, 21)
        fit = mom_minimax_fit(
            data, p, ObjectiveConfig(100.0 * hi, Regularizer.l1()),
            SolverConfig(seed=0),
        )
        diag = theorem2_check(
            fit.theta_hat, theta_star, design, params, Regularizer.l1()
        )
        assert not diag.psi_ok


class TestSupportRecoveryError:
    def test_exact_support_match(self):
        theta_star = np.array([1.0, 0.0, -1.0, 0.0])
        assert support_recovery_error(np.array([0.9, 0.0, -1.1, 0.05]), theta_star) == 0

    def test_counts_misses_and_false_alarms(self):
        theta_star = np.array([1.0, 0.0, 0.0])
        theta_hat = np.array([0.0, 0.5, 0.0])  # one miss + one false alarm
        assert support_recovery_error(theta_hat, theta_star) == 2


# ---------------------------------------------------------------------------
# lemma implications
# ---------------------------------------------------------------------------

def _lemma_setup(seed=0, d=12, noise=0.05):
    rng = np.random.default_rng(seed)
    theta_star = np.zeros(d)
    theta_star[0] = 1.5
    f_star = LinearPredictor(theta_star)
    design = DesignSpec.identity(d)
    data = generate(9 * 20, d, theta_star, design, NoiseSpec("gaussian", noise), seed)
    p = make_partition(9 * 20, 9)
    params = ConditionParams(gamma1=0.8, gamma2=0.1, r=0.5, rho=1.0)
    return f_star, design, data, p, params


class TestLemmaRegCheck:
    def test_lambda_outside_window_rejected(self):
        f_star, design, data, p, params = _lemma_setup()
        lo, hi = lambda_window(params)
        with pytest.raises(ConfigError):
            lemma_reg_check(
                [], f_star, data, p, params, 2.0 * hi, Regularizer.l1(), design
            )

    def test_no_probes_give_the_empty_report(self):
        f_star, design, data, p, params = _lemma_setup()
        _, hi = lambda_window(params)
        report = lemma_reg_check([], f_star, data, p, params, hi, Regularizer.l1(), design)
        assert report.violations == [] and report.total_checked == 0
        assert report.skipped == dict.fromkeys(report.checked, 0)

    def test_far_conclusion_at_lambda_max(self):
        # boundary case: lambda exactly at the window top
        f_star, design, data, p, params = _lemma_setup(seed=1)
        _, hi = lambda_window(params)
        delta = np.zeros(12)
        delta[3] = params.rho  # on the psi-sphere, distance rho >= r
        probe = LemmaProbe(f_star.theta + delta, REGIME_FAR)
        report = lemma_reg_check(
            [probe], f_star, data, p, params, hi, Regularizer.l1(), design
        )
        assert report.checked["far"] > 0
        assert report.violations == []

    def test_near_conclusion(self):
        f_star, design, data, p, params = _lemma_setup(seed=2)
        lo, hi = lambda_window(params)
        delta = np.zeros(12)
        delta[1:9] = params.rho / 8.0  # spread off-support: ||.||_2 < r
        assert np.linalg.norm(delta) < params.r
        probe = LemmaProbe(f_star.theta + delta, REGIME_SPHERE_NEAR)
        report = lemma_reg_check(
            [probe], f_star, data, p, params, (lo + hi) / 2, Regularizer.l1(), design
        )
        assert report.checked["sphere_near"] > 0
        assert report.violations == []

    def test_scaled_conclusion_rhs_doubles_with_alpha(self):
        f_star, design, data, p, params = _lemma_setup(seed=3)
        lo, hi = lambda_window(params)
        lam = (lo + hi) / 2
        delta = np.zeros(12)
        delta[4] = params.rho
        g1 = params.gamma1
        dist = float(np.linalg.norm(delta))
        # conclusion rhs at alpha=2 is exactly twice the alpha=1 far bound
        rhs_alpha1 = 0.5 * g1 * dist * dist
        probe = LemmaProbe(f_star.theta + delta, REGIME_SCALED, alpha=2.0)
        report = lemma_reg_check(
            [probe], f_star, data, p, params, lam, Regularizer.l1(), design
        )
        assert report.checked["scaled_far"] > 0
        assert report.violations == []
        # re-derive the checked rhs and compare against the doubled bound
        from momreg import block_increment

        f_scaled = LinearPredictor(f_star.theta + 2.0 * delta)
        b_f = block_increment(f_scaled, f_star, data, p).values
        psi_gap = psi(Regularizer.l1(), f_scaled.theta) - psi(
            Regularizer.l1(), f_star.theta
        )
        b_h = block_increment(
            LinearPredictor(f_star.theta + delta), f_star, data, p
        ).values
        for j in range(p.n):
            if b_h[j] >= g1 * dist * dist:
                assert b_f[j] + lam * psi_gap >= 2.0 * rhs_alpha1 - 1e-9

    def test_scaled_probe_whose_f_overflows_raises(self):
        f_star, design, data, p, _ = _lemma_setup(seed=3)
        params = ConditionParams(gamma1=0.5, gamma2=0.05, r=1.0, rho=4.0)
        lo, hi = lambda_window(params)
        delta = np.zeros(12)
        delta[4] = params.rho  # on the psi-sphere; alpha * delta overflows
        probe = LemmaProbe(f_star.theta + delta, REGIME_SCALED, alpha=1e308)
        with pytest.raises(InvalidInput, match="^coefficients must be finite$"):
            lemma_reg_check(
                [probe], f_star, data, p, params, (lo + hi) / 2, Regularizer.l1(), design
            )

    def test_randomized_sweep_zero_violations(self):
        report = lemma_sweep(100, seed=42)
        assert report.violations == []
        assert report.total_checked > 1000

    def test_skips_non_qualifying_probes(self):
        f_star, design, data, p, params = _lemma_setup(seed=4)
        lo, hi = lambda_window(params)
        # probe inside the ball but far regime annotation with tiny distance:
        # gates fail, pair is skipped, no violation fabricated
        delta = np.zeros(12)
        delta[2] = 0.01
        probe = LemmaProbe(f_star.theta + delta, REGIME_FAR)
        report = lemma_reg_check(
            [probe], f_star, data, p, params, hi, Regularizer.l1(), design
        )
        assert report.checked["far"] == 0
        assert report.violations == []


# ---------------------------------------------------------------------------
# norming functionals and delta
# ---------------------------------------------------------------------------

def _dual_norm(reg: Regularizer, z: np.ndarray) -> float:
    """Dual norm of psi: the sup of z(x) over the unit psi-ball."""
    if reg.kind == "l1":
        return float(np.max(np.abs(z)))
    a = np.sort(np.abs(z))[::-1]
    return float(np.max(np.cumsum(a) / np.cumsum(reg.weights)))


class TestNormingFunctional:
    def test_l1_invariants(self):
        rng = np.random.default_rng(11)
        reg = Regularizer.l1()
        for _ in range(100):
            v = rng.standard_normal(6) * (rng.uniform(size=6) > 0.3)
            z = norming_functional(reg, v, direction=rng.standard_normal(6))
            np.testing.assert_allclose(float(z @ v), psi(reg, v), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(_dual_norm(reg, z), 1.0, rtol=1e-9)

    def test_slope_invariants(self):
        rng = np.random.default_rng(12)
        reg = Regularizer.slope(default_slope_weights(6))
        for _ in range(100):
            v = rng.standard_normal(6) * (rng.uniform(size=6) > 0.3)
            z = norming_functional(reg, v, direction=rng.standard_normal(6))
            np.testing.assert_allclose(float(z @ v), psi(reg, v), rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(_dual_norm(reg, z), 1.0, rtol=1e-9)

    def test_maximizes_over_free_coordinates(self):
        reg = Regularizer.l1()
        v = np.array([2.0, 0.0, 0.0])
        direction = np.array([-1.0, 3.0, -4.0])
        z = norming_functional(reg, v, direction)
        np.testing.assert_array_equal(z, [1.0, 1.0, -1.0])


class TestEstimateDelta:
    def test_d1_hand_case(self):
        # f* = 0: every unit-dual functional is norming for v = 0, so the
        # sup equals psi on the sphere and the estimate is exactly rho
        design = DesignSpec.identity(1)
        est = estimate_delta(
            Regularizer.l1(), LinearPredictor([0.0]), 0.5, 10.0, design, seed=0
        )
        assert est.feasible
        np.testing.assert_allclose(est.value, 0.5, rtol=1e-12)

    def test_forced_sign_negative_case(self):
        # f* far from 0 with r inactive: pushing against the support gives -rho
        design = DesignSpec.identity(2)
        est = estimate_delta(
            Regularizer.l1(), LinearPredictor([5.0, 4.0]), 0.5, 100.0, design, seed=0
        )
        assert est.feasible
        np.testing.assert_allclose(est.value, -0.5, rtol=1e-12)

    def test_sparse_f_star_estimate_approaches_rho(self):
        # psi(f*) <= rho/20 keeps v=0 in the ball: sup = rho for every h
        design = DesignSpec.identity(4)
        f_star = LinearPredictor([0.01, 0.0, 0.0, 0.0])
        est = estimate_delta(
            Regularizer.l1(), f_star, 1.0, 100.0, design, budget=400, seed=1
        )
        np.testing.assert_allclose(est.value, 1.0, rtol=1e-12)

    def test_rho_zero_infeasible(self):
        design = DesignSpec.identity(2)
        est = estimate_delta(
            Regularizer.l1(), LinearPredictor([1.0, 0.0]), 0.0, 1.0, design
        )
        assert not est.feasible
        assert est.value is None

    def test_tiny_r_infeasible(self):
        design = DesignSpec.identity(2)
        est = estimate_delta(
            Regularizer.l1(), LinearPredictor([1.0, 0.0]), 1.0, 1e-6, design
        )
        assert not est.feasible

    def test_monotone_nonincreasing_in_r(self):
        design = DesignSpec.identity(5)
        f_star = LinearPredictor([2.0, 1.0, 0.0, 0.0, 0.0])
        values = []
        for r in (0.4, 0.6, 0.9, 1.4, 5.0):
            est = estimate_delta(
                Regularizer.l1(), f_star, 1.0, r, design, budget=300, seed=7
            )
            if est.feasible:
                values.append(est.value)
        assert len(values) >= 3
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_slope_d1_case(self):
        design = DesignSpec.identity(1)
        reg = Regularizer.slope([1.5])
        est = estimate_delta(reg, LinearPredictor([0.0]), 0.75, 10.0, design, seed=2)
        np.testing.assert_allclose(est.value, 0.75, rtol=1e-12)

    def test_requires_norm_regularizer(self):
        design = DesignSpec.identity(1)
        with pytest.raises(ConfigError):
            estimate_delta(
                Regularizer.none(), LinearPredictor([0.0]), 1.0, 1.0, design
            )
