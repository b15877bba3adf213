import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import isotonic_regression

from momreg import (
    AdversaryBudget,
    ConditionParams,
    ConfigError,
    Dataset,
    DimensionError,
    EmptyLambdaWindow,
    LinearPredictor,
    ObjectiveConfig,
    Regularizer,
    block_increment,
    default_slope_weights,
    lambda_window,
    make_partition,
    med_increment,
    norming_functional,
    phi_hat,
    phi_lambda_hat,
    prox_psi,
    psi,
)
from momreg import _kernels
from momreg.objective import _ascend_adversary, gram_step_size, psi_batch
from momreg.solver import erm_fit


class TestRegularizer:
    def test_slope_needs_weights(self):
        with pytest.raises(ConfigError):
            Regularizer("slope")

    def test_slope_rejects_increasing_weights(self):
        with pytest.raises(ConfigError):
            Regularizer.slope([1.0, 2.0])

    def test_slope_rejects_nonpositive_weights(self):
        with pytest.raises(ConfigError):
            Regularizer.slope([1.0, 0.0])

    def test_default_weights_positive_nonincreasing(self):
        w = default_slope_weights(20)
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 0)

    def test_objective_config_consistency(self):
        with pytest.raises(ConfigError):
            ObjectiveConfig(0.5, Regularizer.none())
        with pytest.raises(ConfigError):
            ObjectiveConfig(0.0, Regularizer.l1())


class TestPsi:
    def test_l1_hand_sum(self):
        assert psi(Regularizer.l1(), np.array([1.0, -2.0, 0.0])) == 3.0

    def test_slope_hand_sort_and_dot(self):
        reg = Regularizer.slope([2.0, 1.0])
        assert psi(reg, np.array([1.0, -3.0])) == 7.0  # 2*3 + 1*1

    def test_zero_vector(self):
        for reg in (Regularizer.none(), Regularizer.l1(), Regularizer.slope([2.0, 1.0])):
            assert psi(reg, np.zeros(2)) == 0.0

    def test_accepts_predictor(self):
        assert psi(Regularizer.l1(), LinearPredictor([1.0, 1.0])) == 2.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 24, 50, 64, 100])
    def test_batch_rows_match_single_vector_form(self, d):
        # The single-vector form psi had before it became psi_batch's one-row
        # case: a sum of |theta|, or the sorted |theta| dotted with w.
        def reference(reg, theta):
            if reg.kind == "l1":
                return float(np.sum(np.abs(theta)))
            return float(np.sort(np.abs(theta))[::-1] @ reg.weights)

        rng = np.random.default_rng(d)
        thetas = rng.standard_normal((300, d)) * rng.choice([1.0, 1e-3, 1e6], (300, 1))
        thetas[rng.uniform(size=(300, d)) < 0.2] = 0.0
        thetas[::7] = np.round(thetas[::7])  # ties in |theta|
        thetas[::11, :] = 1e6
        for reg in (Regularizer.l1(), Regularizer.slope(default_slope_weights(d))):
            ref = np.array([reference(reg, row) for row in thetas])
            np.testing.assert_array_equal(psi_batch(reg, thetas), ref)
            assert [psi(reg, row) for row in thetas] == ref.tolist()

    @given(
        arrays(np.float64, 5, elements=st.floats(-100, 100)),
        arrays(np.float64, 5, elements=st.floats(-100, 100)),
        st.floats(-10, 10),
    )
    @settings(max_examples=200)
    def test_norm_axioms(self, u, v, scale):
        for reg in (Regularizer.l1(), Regularizer.slope(default_slope_weights(5))):
            pu, pv, puv = psi(reg, u), psi(reg, v), psi(reg, u + v)
            assert puv <= pu + pv + 1e-10 * max(1.0, pu + pv)
            np.testing.assert_allclose(
                psi(reg, scale * u), abs(scale) * pu, rtol=1e-10, atol=1e-10
            )


@pytest.mark.parametrize("count", [1, 2, 4])
def test_wrong_number_of_slope_weights_raises(count):
    # One length check guards every slope computation, so a wrong count
    # never broadcasts (one weight) or reaches numpy as a shape error.
    reg = Regularizer.slope(np.linspace(2.0, 1.0, count))
    theta = np.array([1.0, -2.0, 0.5])
    message = f"theta has 3 entries, slope weights {count}"
    for call in (
        lambda: psi(reg, theta),
        lambda: psi_batch(reg, theta[None]),
        lambda: prox_psi(reg, theta, 0.1),
        lambda: prox_psi(reg, np.stack([theta, theta]), 0.1),
        lambda: norming_functional(reg, theta, theta),
    ):
        with pytest.raises(DimensionError, match=message):
            call()


class TestProxPsi:
    def test_l1_soft_threshold(self):
        out = prox_psi(Regularizer.l1(), np.array([3.0, -0.5, 1.0]), 1.0)
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0])

    def test_none_identity(self):
        theta = np.array([1.0, -2.0])
        np.testing.assert_array_equal(prox_psi(Regularizer.none(), theta, 5.0), theta)

    def test_slope_against_isotonic_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 12))
            theta = rng.standard_normal(d) * 3.0
            w = np.sort(rng.uniform(0.1, 2.0, d))[::-1]
            t = float(rng.uniform(0.01, 2.0))
            ours = prox_psi(Regularizer.slope(w), theta, t)
            a = np.abs(theta)
            order = np.argsort(-a, kind="stable")
            mags = np.maximum(isotonic_regression(a[order] - t * w, increasing=False).x, 0.0)
            expected = np.empty(d)
            expected[order] = mags
            expected *= np.sign(theta)
            np.testing.assert_allclose(ours, expected, rtol=1e-10, atol=1e-12)

    def test_prox_optimality_l1(self):
        # prox minimizes 0.5||x - theta||^2 + t*psi(x); compare against dither
        rng = np.random.default_rng(1)
        reg = Regularizer.l1()
        theta = rng.standard_normal(6)
        t = 0.3
        x = prox_psi(reg, theta, t)
        obj = 0.5 * np.sum((x - theta) ** 2) + t * psi(reg, x)
        for _ in range(200):
            x2 = x + 0.1 * rng.standard_normal(6)
            obj2 = 0.5 * np.sum((x2 - theta) ** 2) + t * psi(reg, x2)
            assert obj <= obj2 + 1e-12


class TestLambdaWindow:
    def test_direct_substitution(self):
        params = ConditionParams(gamma1=1.0, gamma2=0.1, r=1.0, rho=2.0)
        np.testing.assert_allclose(lambda_window(params), (0.15, 0.25))

    def test_boundary_single_point(self):
        # gamma1 = 6 * gamma2 exactly representable in binary
        params = ConditionParams(gamma1=0.75, gamma2=0.125, r=1.0, rho=1.0)
        lo, hi = lambda_window(params)
        np.testing.assert_allclose(lo, hi)

    def test_empty_window(self):
        with pytest.raises(EmptyLambdaWindow):
            lambda_window(ConditionParams(gamma1=1.0, gamma2=0.5, r=1.0, rho=1.0))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g1 = rng.uniform(0.5, 2.0)
            g2 = rng.uniform(0.01, g1 / 6.0)
            r, rho, s = rng.uniform(0.1, 3.0, 3)
            base = lambda_window(ConditionParams(g1, g2, r, rho))
            scaled = lambda_window(ConditionParams(g1, g2, s * r, s * s * rho))
            np.testing.assert_allclose(base, scaled, rtol=1e-12)


def _toy_instance(seed=42):
    rng = np.random.default_rng(seed)
    N, n = 60, 5
    X = rng.standard_normal((N, 1))
    y = X @ np.array([0.7]) + 0.5 * rng.standard_normal(N)
    data = Dataset(X, y)
    return data, make_partition(N, n)


class TestMedIncrement:
    def test_identical_predictors(self):
        data, p = _toy_instance()
        f = LinearPredictor([0.3])
        assert med_increment(f, f, data, p) == 0.0

    def test_single_block(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
        p = make_partition(2, 1)
        assert med_increment(
            LinearPredictor([1.0]), LinearPredictor([0.0]), data, p
        ) == 0.5

    def test_matches_sorted_middle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            data = Dataset(rng.standard_normal((25, 2)), rng.standard_normal(25))
            p = make_partition(25, 5)
            f = LinearPredictor(rng.standard_normal(2))
            g = LinearPredictor(rng.standard_normal(2))
            b = sorted(block_increment(f, g, data, p).values.tolist())
            assert med_increment(f, g, data, p) == b[2]


class TestPhiHat:
    def test_interpolating_f_with_adversary_fixed_at_f(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 2))
        theta = np.array([1.0, -0.5])
        data = Dataset(X, X @ theta)  # exact interpolation
        p = make_partition(12, 3)
        f = LinearPredictor(theta)
        res = phi_hat(f, data, p, AdversaryBudget(restarts=1, iterations=0))
        assert res.value == 0.0
        np.testing.assert_array_equal(res.witness.theta, theta)

    def test_value_equals_witness_increment(self):
        data, p = _toy_instance()
        f = LinearPredictor([0.2])
        res = phi_hat(f, data, p, AdversaryBudget(4, 60), seed=0)
        np.testing.assert_allclose(
            res.value, med_increment(f, res.witness, data, p), rtol=1e-12
        )

    def test_matches_grid_oracle_on_d1_toy(self):
        data, p = _toy_instance()
        f = LinearPredictor([0.2])
        grid = np.arange(-2.0, 2.0 + 0.005, 0.01)
        coarse = max(
            med_increment(f, LinearPredictor([g]), data, p) for g in grid
        )
        fine = np.arange(-2.0, 2.0 + 5e-5, 1e-4)
        fine_max = max(
            med_increment(f, LinearPredictor([g]), data, p) for g in fine
        )
        res = phi_hat(f, data, p, AdversaryBudget(4, 120), seed=0)
        assert res.value >= coarse - 1e-6
        assert res.value <= fine_max + 1e-6

    def test_explored_witnesses_returned(self):
        data, p = _toy_instance()
        f = LinearPredictor([0.2])
        res = phi_hat(
            f, data, p, AdversaryBudget(2, 10), seed=0, collect_explored=True
        )
        assert res.explored is not None
        assert len(res.explored) == 2 * 11
        best = max(
            med_increment(f, LinearPredictor(g), data, p) for g in res.explored
        )
        np.testing.assert_allclose(res.value, best, rtol=1e-12)


class TestPhiLambdaHat:
    def test_reduces_to_phi_hat_at_lambda_zero(self):
        data, p = _toy_instance()
        f = LinearPredictor([0.2])
        budget = AdversaryBudget(4, 60)
        a = phi_hat(f, data, p, budget, seed=1)
        b = phi_lambda_hat(f, data, p, ObjectiveConfig(), budget, seed=1)
        assert a.value == b.value
        np.testing.assert_array_equal(a.witness.theta, b.witness.theta)

    def test_adversary_at_f_scores_zero(self):
        data, p = _toy_instance()
        f = LinearPredictor([0.4])
        cfg = ObjectiveConfig(0.1, Regularizer.l1())
        res = phi_lambda_hat(f, data, p, cfg, AdversaryBudget(1, 0))
        assert res.value == 0.0

    def test_matches_grid_oracle_with_l1(self):
        data, p = _toy_instance()
        f = LinearPredictor([0.2])
        cfg = ObjectiveConfig(0.05, Regularizer.l1())
        psi_f = psi(cfg.regularizer, f)

        def value_at(g):
            return med_increment(f, LinearPredictor([g]), data, p) + cfg.lam * (
                psi_f - abs(g)
            )

        coarse = max(value_at(g) for g in np.arange(-2.0, 2.0 + 0.005, 0.01))
        fine_max = max(value_at(g) for g in np.arange(-2.0, 2.0 + 5e-5, 1e-4))
        res = phi_lambda_hat(f, data, p, cfg, AdversaryBudget(4, 120), seed=0)
        assert res.value >= coarse - 1e-6
        assert res.value <= fine_max + 1e-6

    @pytest.mark.parametrize("dim", [2, 4])
    def test_predictor_of_the_wrong_dimension_raises(self, dim):
        data, p = _toy_instance()  # d = 1
        f = LinearPredictor(np.ones(dim))
        for cfg in (ObjectiveConfig(), ObjectiveConfig(0.05, Regularizer.l1())):
            with pytest.raises(DimensionError, match=rf"^predictor dim {dim} vs data dim 1$"):
                phi_lambda_hat(f, data, p, cfg)


def _ascend_one(S, b, theta_f, g0, lam, reg, psi_f, step, iterations):
    """One start at a time, one 1-d vector per iterate: the reference the
    lockstep ascent must reproduce."""
    g = g0.copy()
    best_value, best_g, explored = -np.inf, g0.copy(), []
    for t in range(iterations + 1):
        inc = _kernels.block_increment(S, b, theta_f, g)
        if not np.isfinite(inc).all():
            break
        med = np.partition(inc, inc.shape[0] // 2)[inc.shape[0] // 2]
        j = int(np.flatnonzero(inc == med)[0])
        value = med + (lam * (psi_f - psi(reg, g)) if lam else 0.0)
        if value > best_value:
            best_value, best_g = value, g.copy()
        explored.append(g.copy())
        if t == iterations:
            break
        s = step / np.sqrt(t + 1.0)
        g = g - s * 2.0 * (S[j] @ g - b[j])
        if lam:
            g = prox_psi(reg, g, s * lam)
        if not np.isfinite(g).all():
            break
    return best_value, best_g, explored


def _phi_reference(f, data, p, cfg, budget, seed):
    X = data.features[: p.total]
    y = data.responses[: p.total]
    lam, reg = cfg.lam, cfg.regularizer
    psi_f = psi(reg, f.theta) if lam else 0.0
    step = gram_step_size(X, p.m)
    ols = erm_fit(data).theta
    rng = np.random.default_rng(seed)
    scale = float(np.linalg.norm(y - X @ ols)) / np.sqrt(X.shape[0])
    S, b = _kernels.block_stats(X, y, p.n, p.m)
    starts = [f.theta, ols][: budget.restarts]
    for _ in range(budget.restarts - 2):
        starts.append(ols + scale * rng.standard_normal(f.dim))
    best_value, best_g, explored = -np.inf, f.theta, []
    for g0 in starts:
        value, g, seen = _ascend_one(
            S, b, f.theta, np.asarray(g0), lam, reg, psi_f, step, budget.iterations
        )
        if value > best_value:
            best_value, best_g = value, g
        explored.extend(seen)
    return best_value, best_g, explored


class TestLockstepAdversary:
    """phi_lambda_hat advances its starts together; each start must follow
    the path a start-by-start ascent takes."""

    @staticmethod
    def _instance(d, seed):
        rng = np.random.default_rng(seed)
        N, n = 189, 9
        X = rng.standard_normal((N, d))
        y = X @ rng.standard_normal(d) + rng.standard_normal(N)
        y[:3] = 1e4  # a few corrupted rows
        return Dataset(X, y), make_partition(N, n), LinearPredictor(rng.standard_normal(d))

    @pytest.mark.parametrize(
        "kind,lam", [("none", 0.0), ("l1", 0.05), ("slope", 0.02)]
    )
    def test_matches_start_by_start_reference(self, kind, lam):
        for seed in range(3):
            d = 4
            data, p, f = self._instance(d, seed)
            reg = {"none": Regularizer.none(), "l1": Regularizer.l1()}.get(kind) or Regularizer.slope(d=d)
            cfg = ObjectiveConfig(lam, reg)
            budget = AdversaryBudget(restarts=5, iterations=40)
            got = phi_lambda_hat(f, data, p, cfg, budget, seed=seed, collect_explored=True)
            value, g, explored = _phi_reference(f, data, p, cfg, budget, seed)
            assert got.value == value
            np.testing.assert_array_equal(got.witness.theta, g)
            assert len(got.explored) == len(explored) == 5 * 41
            for a, b in zip(got.explored, explored):
                np.testing.assert_array_equal(a, b)

    def test_non_finite_starts_stop_alone(self):
        data, p, f = self._instance(3, 7)
        X, y = data.features[: p.total], data.responses[: p.total]
        S, b = _kernels.block_stats(X, y, p.n, p.m)
        step = 50.0 * gram_step_size(X, p.m)  # large enough to blow up some starts
        starts = np.array([
            f.theta,
            [1e200, 0.0, 0.0],  # increments overflow at the start itself
            [1e140, 1e140, 0.0],  # finite at the start, overflows after steps
            [0.5, -0.5, 0.25],
        ])
        reg = Regularizer.l1()
        psi_f = psi(reg, f.theta)
        # the lockstep ascent expects the overflow; numpy does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values, gs, (explored, counts) = _ascend_adversary(
                S, b, f.theta, starts, 0.01, reg, psi_f, step, 30
            )
        with np.errstate(over="ignore", invalid="ignore"):
            reference = [
                _ascend_one(S, b, f.theta, g0, 0.01, reg, psi_f, step, 30)
                for g0 in starts
            ]
        stopped = 0
        for k, (value, g, seen) in enumerate(reference):
            assert values[k] == value
            np.testing.assert_array_equal(gs[k], g)
            assert counts[k] == len(seen)
            np.testing.assert_array_equal(explored[k, : counts[k]], np.array(seen).reshape(-1, 3))
            stopped += counts[k] < 31
        assert counts[1] == 0 and values[1] == -np.inf
        assert stopped >= 2
