import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momreg import (
    BlockPartition,
    ConfigError,
    CorruptionSpec,
    Dataset,
    DesignSpec,
    DimensionError,
    DivergenceError,
    GridCapExceeded,
    GridSpec,
    InvalidInput,
    LinearPredictor,
    NoiseSpec,
    ObjectiveConfig,
    Regularizer,
    SolverConfig,
    block_increment,
    corrupt,
    erm_fit,
    excess_risk,
    generate,
    lasso_fit,
    make_partition,
    med_increment,
    mom_minimax_fit,
    oracle_grid_fit,
    phi_lambda_hat,
)
from momreg import _kernels, solver
from momreg.objective import gram_step_size, prox_psi, psi, psi_batch


class TestErmFit:
    def test_exactly_linear_data(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3))
        theta = np.array([2.0, -1.0, 0.25])
        fit = erm_fit(Dataset(X, X @ theta))
        np.testing.assert_allclose(fit.theta, theta, atol=1e-8)

    def test_hand_normal_equation(self):
        fit = erm_fit(Dataset(np.array([[1.0], [2.0]]), np.array([2.0, 4.0])))
        np.testing.assert_allclose(fit.theta, [2.0])

    def test_orthonormal_design_interpolates(self):
        X = np.eye(3)
        y = np.array([1.0, -2.0, 3.0])
        fit = erm_fit(Dataset(X, y))
        np.testing.assert_allclose(X @ fit.theta, y, atol=1e-10)

    def test_singular_design_survives_via_jitter(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        fit = erm_fit(Dataset(X, np.array([1.0, 2.0, 3.0])))
        assert np.all(np.isfinite(fit.theta))

    def test_duplicated_column_gives_the_ridge_solution(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 2))
        X = np.hstack([X, X[:, :1]])
        y = rng.standard_normal(20)
        gram = X.T @ X
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, X.T @ y)
        fit = erm_fit(Dataset(X, y))
        ridge = np.linalg.solve(gram + 1e-10 * np.eye(3), X.T @ y)
        np.testing.assert_array_equal(fit.theta, ridge)
        assert np.isfinite(fit.theta).all()

    def test_overflowing_gram_raises_invalid_input(self):
        # X^T X and X^T y overflow to inf: both the plain and the ridge
        # solve come out NaN, which no predictor may hold.
        data = Dataset(np.array([[1e200], [1.0]]), np.array([1e200, 1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInput, match="coefficients must be finite"):
                erm_fit(data)


class TestLassoFit:
    def test_noiseless_sparse_recovery(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((400, 10))
        theta = np.zeros(10)
        theta[:2] = 3.0
        fit = lasso_fit(Dataset(X, X @ theta), lam=0.01)
        assert np.all(np.abs(fit.theta[2:]) < 0.05)
        np.testing.assert_allclose(fit.theta[:2], 3.0, atol=0.1)

    def test_huge_lambda_zeroes_out(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 4))
        fit = lasso_fit(Dataset(X, rng.standard_normal(100)), lam=1e4)
        np.testing.assert_array_equal(fit.theta, np.zeros(4))


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SolverConfig(step_f=-1.0)
        with pytest.raises(ConfigError):
            SolverConfig(iterations=0)
        with pytest.raises(ConfigError):
            SolverConfig(restarts=0)
        with pytest.raises(ConfigError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(ConfigError, match="seed"):
            SolverConfig(seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            SolverConfig(seed=1.5)
        for step in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="step_f"):
                SolverConfig(step_f=step)
            with pytest.raises(ConfigError, match="step_g"):
                SolverConfig(step_g=step)
        for tolerance in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="tolerance"):
                SolverConfig(tolerance=tolerance)


class TestMomMinimaxFit:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 3))
        theta_star = np.array([1.0, -2.0, 0.5])
        data = Dataset(X, X @ theta_star)
        p = make_partition(200, 5)
        res = mom_minimax_fit(data, p, ObjectiveConfig(), SolverConfig(seed=0))
        np.testing.assert_allclose(res.theta_hat, theta_star, atol=1e-4)
        assert res.converged

    def test_deterministic_given_seed(self):
        design = DesignSpec.identity(3)
        data = generate(300, 3, np.ones(3), design, NoiseSpec("gaussian", 1.0), 5)
        p = make_partition(300, 15)
        a = mom_minimax_fit(data, p, ObjectiveConfig(), SolverConfig(seed=7))
        b = mom_minimax_fit(data, p, ObjectiveConfig(), SolverConfig(seed=7))
        np.testing.assert_array_equal(a.theta_hat, b.theta_hat)
        for field in ("median_block", "med_increment", "step_norm_f", "step_norm_g"):
            np.testing.assert_array_equal(getattr(a.trace, field), getattr(b.trace, field))
        assert a.converged == b.converged
        assert a.best_surrogate == b.best_surrogate

    def test_trace_shape(self):
        design = DesignSpec.identity(2)
        data = generate(100, 2, np.ones(2), design, NoiseSpec("gaussian", 1.0), 6)
        p = make_partition(100, 5)
        cfg = SolverConfig(iterations=40, restarts=3, seed=0)
        res = mom_minimax_fit(data, p, ObjectiveConfig(), cfg)
        trace = res.trace
        for field in ("median_block", "med_increment", "step_norm_f", "step_norm_g"):
            assert getattr(trace, field).shape == (3, 40)
        assert trace.median_block.dtype.kind == "i"
        assert np.all((0 <= trace.median_block) & (trace.median_block < p.n))
        assert np.all(np.isfinite(trace.med_increment))
        assert np.all(trace.step_norm_f >= 0.0) and np.all(trace.step_norm_g >= 0.0)

    def test_converged_is_a_python_bool(self):
        # reports serialize it with json.dumps, which rejects numpy bools
        design = DesignSpec.identity(2)
        data = generate(105, 2, np.ones(2), design, NoiseSpec("gaussian", 1.0), 2)
        res = mom_minimax_fit(data, make_partition(105, 7), ObjectiveConfig(), SolverConfig(iterations=20))
        assert type(res.converged) is bool
        json.dumps({"converged": res.converged})

    def test_divergence_raises(self):
        design = DesignSpec.identity(2)
        data = generate(100, 2, np.ones(2), design, NoiseSpec("gaussian", 1.0), 7)
        p = make_partition(100, 5)
        cfg = SolverConfig(step_f=1e150, step_g=1e150, iterations=30, seed=0)
        # the loop expects the overflow and raises; numpy does not warn
        with pytest.raises(DivergenceError), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mom_minimax_fit(data, p, ObjectiveConfig(), cfg)

    def test_overflowing_prox_step_raises_config_error_before_the_loop(self, monkeypatch):
        data = generate(100, 2, np.ones(2), DesignSpec.identity(2), NoiseSpec("gaussian", 1.0), 7)
        obj = ObjectiveConfig(1e10, Regularizer.l1())
        cfg = SolverConfig(step_f=1e300, step_g=1e300, iterations=3)
        monkeypatch.setattr(solver, "_descent_ascent", None)  # never reached
        with pytest.raises(ConfigError, match=r"step_f/step_g 1e\+300 \* lambda 10000000000\.0"):
            mom_minimax_fit(data, make_partition(100, 5), obj, cfg)

    def test_matches_grid_oracle_d1(self):
        hits = 0
        for seed in range(6):
            rng = np.random.default_rng(1000 + seed)
            X = rng.standard_normal((300, 1))
            ts = np.array([rng.uniform(-1.5, 1.5)])
            data = Dataset(X, X @ ts + rng.standard_normal(300))
            p = make_partition(300, 15)
            fit = mom_minimax_fit(data, p, ObjectiveConfig(), SolverConfig(seed=seed))
            grid = GridSpec(axes=((-3.0, 3.0, 0.01),))
            oracle = oracle_grid_fit(data, p, ObjectiveConfig(), grid, grid)
            if abs(fit.theta_hat[0] - oracle.theta_hat[0]) <= 0.02:
                hits += 1
        assert hits >= 5

    def test_audited_minimizer_dominates_f_star(self):
        from momreg import AdversaryBudget, phi_hat

        design = DesignSpec.identity(4)
        theta_star = np.array([1.0, -1.0, 0.5, 0.0])
        for seed in range(3):
            data = generate(800, 4, theta_star, design, NoiseSpec("gaussian", 1.0), seed)
            p = make_partition(800, 21)
            fit = mom_minimax_fit(data, p, ObjectiveConfig(), SolverConfig(seed=seed))
            budget = AdversaryBudget(4, 120)
            phi_tilde = phi_hat(fit.predictor, data, p, budget, seed=99).value
            phi_star = phi_hat(LinearPredictor(theta_star), data, p, budget, seed=99).value
            assert phi_tilde <= phi_star + 5e-3

    def test_corruption_leaves_clean_blocks_untouched(self):
        from momreg import CorruptionSpec, corrupt

        design = DesignSpec.identity(3)
        data = generate(300, 3, np.ones(3), design, NoiseSpec("gaussian", 1.0), 11)
        p = make_partition(300, 15)
        prev_bad_rows = np.zeros(0, dtype=int)
        for count in (0, 3, 7):
            spec = CorruptionSpec(count=count, indices=tuple(range(count)))
            cdata, idx = corrupt(data, spec, 0)
            clean_rows = np.setdiff1d(np.arange(300), np.asarray(idx, dtype=int))
            np.testing.assert_array_equal(
                cdata.features[clean_rows], data.features[clean_rows]
            )
            np.testing.assert_array_equal(
                cdata.responses[clean_rows], data.responses[clean_rows]
            )
            assert len(idx) == count
            assert set(prev_bad_rows) <= set(idx)
            prev_bad_rows = np.asarray(idx, dtype=int)


class TestStatisticsPath:
    """The fit runs on per-block statistics; these tie it to the exact
    residual path."""

    def test_criterion4_seed0_theta_hat_pinned(self):
        # The huge_response row holds the values of the exact residual
        # implementation, on which every iteration read all rows of X; the
        # adversarial_leverage row those of the statistics path, whose
        # witness pool is the least-squares fit and each restart's last f
        # and g.
        expected = {
            "huge_response": [
                0.9460979358118425, 1.0628472759374035, 1.0504581914341553,
                1.0455710040419608, 1.011095615574794,
            ],
            "adversarial_leverage": [
                0.7470000049672564, 1.337230269647885, 0.9275912875086822,
                1.3343821885047478, 1.3771198861076261,
            ],
        }
        design = DesignSpec.identity(5)
        data = generate(1000, 5, np.ones(5), design, NoiseSpec("gaussian", 1.0), 0)
        p = make_partition(1000, 51)
        for mode, theta in expected.items():
            bad, _ = corrupt(data, CorruptionSpec(count=10, mode=mode, magnitude=1e6), 9999)
            fit = mom_minimax_fit(bad, p, ObjectiveConfig(), SolverConfig(seed=0))
            np.testing.assert_allclose(fit.theta_hat, theta, rtol=0.0, atol=1e-12)

    def test_seed_draws_nothing_at_two_restarts(self):
        # The seed draws only the starts after the second, so at restarts
        # <= 2 two seeds give the same fit, bit for bit.
        data = generate(1000, 5, np.ones(5), DesignSpec.identity(5), NoiseSpec("gaussian", 1.0), 0)
        spec = CorruptionSpec(count=10, mode="adversarial_leverage", magnitude=1e6)
        bad, _ = corrupt(data, spec, 9999)
        p = make_partition(1000, 51)
        for restarts in (1, 2):
            a, b = (
                mom_minimax_fit(bad, p, ObjectiveConfig(), SolverConfig(restarts=restarts, seed=s))
                for s in (0, 1)
            )
            assert a.theta_hat.tobytes() == b.theta_hat.tobytes()
            assert np.float64(a.best_surrogate).tobytes() == np.float64(b.best_surrogate).tobytes()

    def test_step_size_computed_once_per_fit(self, monkeypatch):
        calls = []
        real = solver.gram_step_size

        def counted(X, m):
            calls.append(m)
            return real(X, m)

        monkeypatch.setattr(solver, "gram_step_size", counted)
        data = generate(105, 2, np.ones(2), DesignSpec.identity(2), NoiseSpec("gaussian", 1.0), 1)
        mom_minimax_fit(data, make_partition(105, 7), ObjectiveConfig(), SolverConfig(iterations=5))
        assert calls == [15]

    def test_fit_and_certificate_share_one_step(self, monkeypatch):
        steps = []
        real = solver.gram_step_size

        def recorded(X, m):
            steps.append(real(X, m))
            return steps[-1]

        monkeypatch.setattr(solver, "gram_step_size", recorded)
        data = generate(105, 2, np.ones(2), DesignSpec.identity(2), NoiseSpec("gaussian", 1.0), 2)
        p = make_partition(105, 7)
        fit = mom_minimax_fit(data, p, ObjectiveConfig(), SolverConfig(iterations=5))
        assert len(steps) == 1
        phi_lambda_hat(fit.predictor, data, p, ObjectiveConfig())
        assert len(steps) == 2 and steps[0] == steps[1]

    def test_refine_neighbour_losses_match_exact_losses(self):
        rng = np.random.default_rng(20)
        n, m, d = 5, 19, 3
        X = rng.standard_normal((n * m, d))
        y = X @ rng.standard_normal(d) + rng.standard_normal(n * m)
        y[:2] = 1e6
        S, b = _kernels.block_stats(X, y, n, m)
        theta = rng.standard_normal(d)
        base = _kernels.block_losses(X, y, theta[None], n, m)[0]
        grad = S @ theta - b
        for i in range(d):
            for s in (0.05, -0.05, 2.0, -2.0):
                moved = theta.copy()
                moved[i] += s
                closed = base + 2.0 * s * grad[:, i] + s * s * S[:, i, i]
                exact = _kernels.block_losses(X, y, moved[None], n, m)[0]
                np.testing.assert_allclose(closed, exact, rtol=1e-12, atol=1e-12)

    @staticmethod
    def _audit(rng, X, y, n, m, reg, lam, pool_size):
        pool = rng.standard_normal((pool_size, X.shape[1]))
        losses = _kernels.block_losses(X, y, pool, n, m)
        return solver._WitnessPoolAudit(losses, psi_batch(reg, pool), lam)

    def test_batched_audit_matches_one_candidate_at_a_time(self):
        rng = np.random.default_rng(21)
        n, m = 51, 3
        X = rng.standard_normal((n * m, 2))
        y = rng.standard_normal(n * m)
        for reg, lam in ((Regularizer.none(), 0.0), (Regularizer.l1(), 0.3)):
            # a pool large enough that the audit works in several batches
            audit = self._audit(rng, X, y, n, m, reg, lam, 300)
            cands = rng.standard_normal((10, 2))
            losses = _kernels.block_losses(X, y, cands, n, m)
            psis = psi_batch(reg, cands)
            got = audit.value_from_losses(losses, psis)
            for k in range(10):
                meds = np.median(losses[k] - audit.pool_losses, axis=1)
                if lam:
                    meds = meds + lam * (psis[k] - audit.pool_psi)
                assert got[k] == np.max(meds)

    def test_refine_matches_a_sweep_over_exact_losses(self):
        """The batched closed-form sweep visits moves in the order of a
        sweep that audits each move from its exact residual losses."""

        def sweep(audit, reg, X, y, n, m, theta, value, scales, eval_cap):
            d = theta.shape[0]
            for scale in scales:
                evals = 0
                improved = True
                while improved and evals < eval_cap * d:
                    improved = False
                    for i in range(d):
                        for sign in (1.0, -1.0):
                            cand = theta.copy()
                            cand[i] += sign * scale
                            lf = _kernels.block_losses(X, y, cand[None, :], n, m)
                            v = float(audit.value_from_losses(lf, psi_batch(reg, cand[None, :]))[0])
                            evals += 1
                            if v < value:
                                value, theta, improved = v, cand, True
                                break
            return theta, value

        rng = np.random.default_rng(22)
        n, m, d = 11, 9, 12
        for reg, lam in ((Regularizer.none(), 0.0), (Regularizer.l1(), 0.05)):
            for trial in range(3):
                X = rng.standard_normal((n * m, d))
                y = X @ rng.standard_normal(d) + rng.standard_normal(n * m)
                S, b = _kernels.block_stats(X, y, n, m)
                audit = self._audit(rng, X, y, n, m, reg, lam, 8)
                theta0 = rng.standard_normal(d)
                losses0 = _kernels.block_losses(X, y, theta0[None], n, m)[0]
                value0 = float(audit.value_from_losses(losses0[None, :], psi_batch(reg, theta0[None, :]))[0])
                scales = (0.5, 0.1, 0.02)
                eval_cap = 2 + trial  # small caps stop some sweeps early
                got = solver._pattern_refine(
                    audit, reg, S, b, theta0, losses0, value0, scales, eval_cap
                )
                want = sweep(audit, reg, X, y, n, m, theta0.copy(), value0, scales, eval_cap)
                np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)
                assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-12)
                assert not np.array_equal(got[0], theta0)


def _unscreened_refine(audit, reg, S, b, theta0, losses0, value0, scales, eval_cap, live=None):
    """The refine with every batch of moves audited against the full pool:
    the reference the screened refine must reproduce exactly.  Given a
    list, live gets each batch's number of moves that the screen of the
    current theta, its _REFINE_SCREEN witnesses of largest term, puts below
    the current value, for the moves the refine audits: a sweep that takes
    no move before where the last sweep's last move left off audits none
    after it, since all of them were rejected at that point."""
    theta, losses, value = theta0.copy(), losses0, value0
    norm = psi(reg, theta)
    d = theta.shape[0]
    coords = np.repeat(np.arange(d), 2)
    signs = np.tile([1.0, -1.0], d)[:, None]
    curv = np.diagonal(S, axis1=1, axis2=2).T[coords]
    grad = (S @ theta - b).T[coords]
    for scale in scales:
        steps = signs * scale
        quad = steps * steps * curv
        evals = 0
        improved = True
        stop = 2 * d
        while improved and evals < eval_cap * d:
            improved = False
            lo, end = 0, stop
            while lo < 2 * d:
                hi = min(lo + solver._REFINE_BATCH, end if lo < end else 2 * d)
                cand_losses = losses + 2.0 * steps[lo:hi] * grad[lo:hi] + quad[lo:hi]
                cands = np.repeat(theta[None, :], hi - lo, axis=0)
                cands[np.arange(hi - lo), coords[lo:hi]] += steps[lo:hi, 0]
                psis = psi_batch(reg, cands)
                values = audit.value_from_losses(cand_losses, psis)
                if live is not None and lo < end:
                    meds = audit.terms(losses, norm)
                    top = np.argpartition(-meds, solver._REFINE_SCREEN - 1)[: solver._REFINE_SCREEN]
                    near = solver._WitnessPoolAudit(audit.pool_losses[top], audit.pool_psi[top], audit.lam)
                    live.append(int(np.sum(near.value_from_losses(cand_losses, psis) < value)))
                better = np.flatnonzero(values < value)
                if better.size == 0:
                    evals += hi - lo
                    lo = hi
                    continue
                k = int(better[0])
                evals += k + 1
                theta, losses, value = cands[k], cand_losses[k], float(values[k])
                norm = float(psis[k])
                grad = (S @ theta - b).T[coords]
                improved = True
                lo = stop = 2 * (int(coords[lo + k]) + 1)
                end = 2 * d
    return theta, value


class TestRefineScreen:
    """The refine screens each batch of moves against a few witnesses before
    the full audit; the screen may only drop moves the audit rejects."""

    def test_screened_refine_equals_unscreened(self, monkeypatch):
        rows = []
        real = solver._WitnessPoolAudit.terms

        def counted(audit, losses, psis):
            if audit.pool_losses.shape[0] > solver._REFINE_SCREEN:
                rows.append(losses[..., 0].size)  # thetas audited on the full pool
            return real(audit, losses, psis)

        monkeypatch.setattr(solver._WitnessPoolAudit, "terms", counted)
        rng = np.random.default_rng(23)
        n, m, d = 21, 9, 10
        screened_rows = full_rows = 0
        for reg, lam in ((Regularizer.none(), 0.0), (Regularizer.l1(), 0.05)):
            for _ in range(3):
                X = rng.standard_normal((n * m, d))
                y = X @ rng.standard_normal(d) + rng.standard_normal(n * m)
                y[:4] = 1e3
                S, b = _kernels.block_stats(X, y, n, m)
                pool = rng.standard_normal((40, d))
                audit = solver._WitnessPoolAudit(
                    _kernels.block_losses(X, y, pool, n, m), psi_batch(reg, pool), lam
                )
                theta0 = rng.standard_normal(d)
                losses0 = _kernels.block_losses(X, y, theta0[None], n, m)[0]
                value0 = float(audit.value_from_losses(losses0[None, :], psi_batch(reg, theta0[None, :]))[0])
                # the last scale moves the value by far less than 1e-6
                args = (audit, reg, S, b, theta0, losses0, value0, (0.5, 0.1, 0.02, 1e-9), 4)
                rows.clear()
                got = solver._pattern_refine(*args)
                screened_rows += sum(rows)
                rows.clear()
                want = _unscreened_refine(*args)
                full_rows += sum(rows)
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1]
                assert not np.array_equal(want[0], theta0)
        assert 0 < screened_rows < full_rows

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 20),
        n=st.integers(1, 25).map(lambda k: 2 * k + 1),
        pool_size=st.integers(5, 80),
        kind=st.sampled_from(["none", "l1", "slope"]),
        lam=st.floats(0.01, 1.0),
        eval_cap=st.integers(1, 4),
        scales=st.lists(st.sampled_from([1.0, 0.5, 0.1, 0.02]), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    # A sweep that takes no move before where the last one left off, with
    # moves after that point live on the screen.
    @example(d=2, n=21, pool_size=54, kind="none", lam=1.0, eval_cap=2, scales=[0.5], seed=304)
    def test_refine_bytes_equal_unscreened(self, d, n, pool_size, kind, lam, eval_cap, scales, seed):
        """Byte for byte the unscreened refine, with exactly the screen-live
        moves (and the start) audited against the full pool."""

        class Counted(solver._WitnessPoolAudit):
            rows = 0

            def terms(self, losses, psis):
                self.rows += losses[..., 0].size
                return super().terms(losses, psis)

        rng = np.random.default_rng(seed)
        reg = Regularizer.none() if kind == "none" else Regularizer.l1() if kind == "l1" else Regularizer.slope(d=d)
        lam = 0.0 if kind == "none" else lam
        m = 3
        X = rng.standard_normal((n * m, d))
        y = X @ rng.standard_normal(d) + rng.standard_normal(n * m)
        y[: rng.integers(0, 3)] = 1e3
        S, b = _kernels.block_stats(X, y, n, m)
        pool = rng.standard_normal((pool_size, d))
        audit = Counted(_kernels.block_losses(X, y, pool, n, m), psi_batch(reg, pool), lam)
        theta0 = rng.standard_normal(d)
        losses0 = _kernels.block_losses(X, y, theta0[None], n, m)[0]
        value0 = float(audit.value_from_losses(losses0[None, :], psi_batch(reg, theta0[None, :]))[0])
        args = (audit, reg, S, b, theta0, losses0, value0, (*scales, 1e-9), eval_cap)
        live = []
        want = _unscreened_refine(*args, live=live)
        audit.rows = 0
        got = solver._pattern_refine(*args)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        # the start's terms, then the screen-live moves of every batch
        assert audit.rows == 1 + sum(live)

    def test_fit_unchanged_by_the_screen(self, monkeypatch):
        data = generate(630, 6, np.ones(6), DesignSpec.identity(6), NoiseSpec("gaussian", 1.0), 40)
        p = make_partition(630, 21)
        for obj in (ObjectiveConfig(), ObjectiveConfig(0.05, Regularizer.l1())):
            cfg = SolverConfig(iterations=60, seed=4)
            screened = mom_minimax_fit(data, p, obj, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_pattern_refine", _unscreened_refine)
                full = mom_minimax_fit(data, p, obj, cfg)
            assert np.array_equal(screened.theta_hat, full.theta_hat)
            assert screened.best_surrogate == full.best_surrogate


def _brute_tournament(pool_losses, pool_psi, lam, losses, psis):
    """The tournament from its definition, one candidate at a time: a
    candidate's value is the max over pool members g of the middle of its
    sorted block-loss differences plus lam (psi - psi_g); the least
    _AUDIT_TOURNAMENT_SIZE values take seats in stable order and join the
    pool, and a seat's final value is its value against that pool."""
    n = losses.shape[1]

    def value(loss, norm, members, norms):
        meds = np.sort(loss - members, axis=1)[:, n // 2]
        return np.max(meds + lam * (norm - norms) if lam else meds)

    prelim = np.array([value(loss, norm, pool_losses, pool_psi)
                       for loss, norm in zip(losses, psis)])
    top = np.argsort(prelim, kind="stable")[: solver._AUDIT_TOURNAMENT_SIZE]
    members = np.concatenate([pool_losses, losses[top]])
    norms = np.concatenate([pool_psi, psis[top]])
    return top, np.array([value(losses[k], psis[k], members, norms) for k in top])


@st.composite
def _tournament_cases(draw):
    """A pool and candidates whose block losses hold ties, repeated rows,
    signed zeros, +-inf and NaN entries, with some infinite norms, lam = 0
    or lam > 0, and candidate counts below, at and above the seats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 3, 5, 9]))
    pool = draw(st.integers(1, 10))
    k = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 200]), st.integers(1, 200)))
    losses = np.round(rng.standard_normal((pool + k, n)), draw(st.sampled_from([0, 1, 8])))
    rows = rng.integers(0, pool + k, draw(st.integers(0, 20)))
    losses[rows] = losses[rng.integers(0, pool + k, rows.size)]
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan):
        frac = draw(st.sampled_from([0.0, 0.0, 0.02, 0.3]))
        losses[rng.random(losses.shape) < frac] = value
    psis = np.abs(np.round(rng.standard_normal(pool + k), 1))
    psis[rng.random(pool + k) < draw(st.sampled_from([0.0, 0.0, 0.1]))] = np.inf
    lam = draw(st.sampled_from([0.0, 0.5, 3.0]))
    return losses[:pool], psis[:pool], lam, losses[pool:], psis[pool:]


class TestTournament:
    """The fit's tournament is the two witness-pool audits it is defined as."""

    @settings(max_examples=300, deadline=None)
    @given(_tournament_cases())
    def test_matches_its_definition(self, case):
        pool_losses, pool_psi, lam, losses, psis = case
        with np.errstate(invalid="ignore"):
            want_top, want = _brute_tournament(pool_losses, pool_psi, lam, losses, psis)
            audit = solver._WitnessPoolAudit(pool_losses, pool_psi, lam)
            top, final = solver._tournament(audit, losses, psis)
        assert np.array_equal(top, want_top)
        np.testing.assert_array_equal(final, want)  # equal, or NaN where NaN
        np.testing.assert_array_equal(audit.pool_losses, np.concatenate([pool_losses, losses[top]]))
        np.testing.assert_array_equal(audit.pool_psi, np.concatenate([pool_psi, psis[top]]))


def _sequential_descent_ascent(S, b, starts, reg, lam, step_f, step_g, iterations, warm):
    """Restart after restart, one 1-d vector per iterate: the reference the
    lockstep loop must reproduce."""
    R, d = starts.shape
    iterates = np.empty((2, R, iterations + 1, d))
    median_block = np.empty((R, iterations), dtype=np.intp)
    med_increment = np.empty((R, iterations))

    def median_block_of(inc):
        med = np.partition(inc, inc.shape[0] // 2)[inc.shape[0] // 2]
        return int(np.flatnonzero(inc == med)[0]), med

    for k in range(R):
        f = starts[k].copy()
        g = f.copy()
        iterates[:, k, 0] = f
        for t in range(1, iterations + 1):
            damp = 1.0 if t <= warm else math.sqrt(t - warm)
            inc = _kernels.block_increment(S, b, f, g)
            if not np.isfinite(inc).all():
                raise DivergenceError("non-finite increments")
            j_adv, med = median_block_of(inc)
            sg = step_g / damp
            g = g - sg * 2.0 * (S[j_adv] @ g - b[j_adv])
            if lam:
                g = prox_psi(reg, g, sg * lam)
            j_lrn, _ = median_block_of(_kernels.block_increment(S, b, f, g))
            sf = step_f / damp
            f = f - sf * 2.0 * (S[j_lrn] @ f - b[j_lrn])
            if lam:
                f = prox_psi(reg, f, sf * lam)
            if not (np.isfinite(f).all() and np.isfinite(g).all()):
                raise DivergenceError("non-finite iterate")
            iterates[:, k, t] = f, g
            median_block[k, t - 1] = j_adv
            med_increment[k, t - 1] = med
    return iterates, median_block, med_increment


class TestLockstepRestarts:
    """All restarts advance together; each must follow its sequential path."""

    CASES = [
        (ObjectiveConfig(), 2),
        (ObjectiveConfig(), 3),  # restart 2 starts from a seeded perturbation
        (ObjectiveConfig(0.05, Regularizer.l1()), 2),
        (ObjectiveConfig(0.05, Regularizer.l1()), 3),
        (ObjectiveConfig(0.02, Regularizer.slope(d=4)), 3),
    ]

    @staticmethod
    def _data(seed):
        theta_star = np.array([1.0, -0.5, 0.0, 2.0])
        data = generate(315, 4, theta_star, DesignSpec.identity(4), NoiseSpec("gaussian", 1.0), seed)
        bad, _ = corrupt(data, CorruptionSpec(count=6, magnitude=1e4), seed + 100)
        return bad, make_partition(315, 15)

    @pytest.mark.parametrize("obj,restarts", CASES)
    def test_loop_matches_sequential_restarts(self, obj, restarts):
        data, p = self._data(30)
        X, y = data.features[: p.total], data.responses[: p.total]
        S, b = _kernels.block_stats(X, y, p.n, p.m)
        rng = np.random.default_rng(5)
        starts = rng.standard_normal((restarts, 4))
        step = gram_step_size(X, p.m)
        args = (S, b, starts, obj.regularizer, obj.lam, step, 0.8 * step, 60, 20)
        got = solver._descent_ascent(*args)
        want = _sequential_descent_ascent(*args)
        np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_allclose(got[2], want[2], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("obj,restarts", CASES)
    def test_fit_matches_sequential_restarts(self, obj, restarts, monkeypatch):
        cfg = SolverConfig(iterations=60, restarts=restarts, seed=3)
        for seed in (31, 32):
            data, p = self._data(seed)
            got = mom_minimax_fit(data, p, obj, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_descent_ascent", _sequential_descent_ascent)
                want = mom_minimax_fit(data, p, obj, cfg)
            np.testing.assert_allclose(got.theta_hat, want.theta_hat, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(got.trace.median_block, want.trace.median_block)
            assert got.converged == want.converged

    def test_divergence_raises_with_regularizer_and_restarts(self):
        data, p = self._data(33)
        obj = ObjectiveConfig(0.05, Regularizer.l1())
        cfg = SolverConfig(step_f=1e150, step_g=1e150, iterations=30, restarts=3)
        with pytest.raises(DivergenceError):
            with np.errstate(over="ignore", invalid="ignore"):
                mom_minimax_fit(data, p, obj, cfg)


class TestOracleGridFit:
    def test_singleton_grid_returns_theta_star(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 2))
        theta_star = np.array([0.5, -0.25])
        data = Dataset(X, X @ theta_star)
        p = make_partition(60, 3)
        grid = GridSpec(axes=((0.5, 0.5, 1.0), (-0.25, -0.25, 1.0)))
        fit = oracle_grid_fit(data, p, ObjectiveConfig(), grid, grid)
        np.testing.assert_array_equal(fit.theta_hat, theta_star)

    def test_noiseless_d1_returns_nearest_grid_point(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((90, 1))
        data = Dataset(X, X @ np.array([0.703]))
        p = make_partition(90, 9)
        grid = GridSpec(axes=((-2.0, 2.0, 0.01),))
        fit = oracle_grid_fit(data, p, ObjectiveConfig(), grid, grid)
        np.testing.assert_allclose(fit.theta_hat, [0.70], atol=1e-9)

    def test_cap_enforced(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 1))
        data = Dataset(X, rng.standard_normal(30))
        p = make_partition(30, 3)
        grid = GridSpec(axes=((-1.0, 1.0, 0.001),))
        with pytest.raises(GridCapExceeded):
            oracle_grid_fit(data, p, ObjectiveConfig(), grid, grid, cap=1000)

    def test_cap_checked_before_a_point_is_built(self, monkeypatch):
        monkeypatch.setattr(GridSpec, "points", lambda self: pytest.fail("grid points built"))
        data = Dataset(np.eye(3, 2), np.ones(3))
        fine = GridSpec(axes=((-1.0, 1.0, 1e-6),) * 2)  # 2,000,001 points per axis
        with pytest.raises(GridCapExceeded, match="4000004000001 x 4000004000001 grid"):
            oracle_grid_fit(data, BlockPartition(3, 1), ObjectiveConfig(), fine, fine)
        line = GridSpec(axes=((-3.0, 3.0, 1e-7),))
        with pytest.raises(GridCapExceeded, match="60000001 x 60000001 grid"):
            oracle_grid_fit(Dataset(np.ones((3, 1)), np.ones(3)), BlockPartition(3, 1),
                            ObjectiveConfig(), line, line)

    @pytest.mark.parametrize("axes", [(), ((0.0, 1.0),), ((0.0, 1.0, 0.5, 2.0),), (0.5,), None,
                                      ((0.0, 1.7e308, 1.7e308),)])
    def test_grid_axes_must_be_countable_triples(self, axes):
        with pytest.raises(ConfigError):
            GridSpec(axes=axes)

    def test_partition_larger_than_the_data_raises_dimension_error(self):
        # Every caller of the partition's rows shares one size check.
        rng = np.random.default_rng(11)
        data = Dataset(rng.standard_normal((100, 1)), rng.standard_normal(100))
        p = BlockPartition(15, 7)  # 105 rows
        grid = GridSpec(axes=((-1.0, 1.0, 0.5),))
        f = LinearPredictor([0.0])
        for call in (
            lambda: oracle_grid_fit(data, p, ObjectiveConfig(), grid, grid),
            lambda: mom_minimax_fit(data, p),
            lambda: phi_lambda_hat(f, data, p, ObjectiveConfig()),
            lambda: block_increment(f, f, data, p),
        ):
            with pytest.raises(DimensionError, match="covers 105 samples but dataset has 100"):
                call()

    def test_lexicographic_tie_break(self):
        # perfectly symmetric data: objective is even in theta, so +t and -t
        # tie and the smaller (more negative) grid point must win
        X = np.array([[1.0], [-1.0], [2.0], [-2.0], [1.5], [-1.5]])
        data = Dataset(X, np.zeros(6))
        p = make_partition(6, 3)
        grid = GridSpec(axes=((-1.0, 1.0, 1.0),))  # {-1, 0, 1}
        fit = oracle_grid_fit(data, p, ObjectiveConfig(), grid, grid)
        # 0 is the strict minimizer here; ties among symmetric non-optimal
        # points do not affect the argmin
        np.testing.assert_array_equal(fit.theta_hat, [0.0])

    def test_objective_table_and_regularized_path(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 1))
        data = Dataset(X, X @ np.array([1.0]) + 0.1 * rng.standard_normal(60))
        p = make_partition(60, 5)
        grid = GridSpec(axes=((-2.0, 2.0, 0.1),))
        obj = ObjectiveConfig(0.05, Regularizer.l1())
        fit = oracle_grid_fit(data, p, obj, grid, grid)
        assert fit.objective.shape == (41,)
        best = int(np.argmin(fit.objective))
        np.testing.assert_array_equal(fit.theta_hat, fit.grid_f[best])

    # Clean and corrupted data, lam 0 and lam > 0 with l1 and slope: the
    # branch-and-bound audit of equal grids is the full audit of the pool
    # against itself, sign of zero included.  601 points over 15 blocks span
    # many batches of the audit's temporary budget.
    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize(
        "obj",
        [ObjectiveConfig(), ObjectiveConfig(0.05, Regularizer.l1()),
         ObjectiveConfig(0.03, Regularizer.slope(d=2))],
        ids=["none", "l1", "slope"],
    )
    def test_equal_grids_take_each_pair_once(self, obj, corrupt):
        rng = np.random.default_rng(13)
        # The coarse last axis of the third grid puts far-apart thetas in one
        # leaf: loose envelopes, many groups live after the first leaf.
        for d, grid in ((1, GridSpec(axes=((-3.0, 3.0, 0.01),))),
                        (2, GridSpec(axes=((-1.0, 1.0, 0.1), (-0.5, 1.5, 0.25)))),
                        (2, GridSpec(axes=((-2.5, 2.5, 0.05), (-1.0, 1.0, 0.5))))):
            if obj.regularizer.kind == "slope" and d == 1:
                continue
            X = rng.standard_normal((300, d))
            y = X @ np.linspace(0.5, -0.5, d) + rng.standard_normal(300)
            if corrupt:
                y[rng.choice(300, 3, replace=False)] = 1e6
            data, p = Dataset(X, y), make_partition(300, 15)
            S, b = _kernels.block_stats(X, y, p.n, p.m)
            pts = grid.points()
            losses = solver._audit_losses(X, y, S, b, pts, p)  # the oracle's losses
            psis = psi_batch(obj.regularizer, pts)
            full = solver._WitnessPoolAudit(losses, psis, obj.lam).value_from_losses(losses, psis)
            fit = oracle_grid_fit(data, p, obj, grid, grid)
            np.testing.assert_array_equal(fit.objective, full)
            np.testing.assert_array_equal(np.signbit(fit.objective), np.signbit(full))
            np.testing.assert_array_equal(fit.theta_hat, pts[int(np.argmin(full))])
        # A grid of g's that differs from the grid of f's has the full audit's
        # objective too.
        other = GridSpec(axes=((-1.0, 1.0, 0.1), (-0.5, 1.5, 0.5)))
        pts_g = other.points()
        audit = solver._WitnessPoolAudit(
            solver._audit_losses(X, y, S, b, pts_g, p), psi_batch(obj.regularizer, pts_g), obj.lam
        )
        np.testing.assert_array_equal(
            oracle_grid_fit(data, p, obj, grid, other).objective,
            audit.value_from_losses(losses, psis),
        )

    def test_grid_pruning_is_live(self, monkeypatch):
        # The frozen criterion-3 instance at seed 1000.  Member terms are
        # those against a slice of the pool, envelope terms those against a
        # group or leaf envelope.  Losing the first leaf, the largest bound,
        # would leave every leaf live, and a one-level bound table takes
        # ceil(|G| / 16) envelope terms per candidate: the same bits either
        # way.
        rng = np.random.default_rng(1000)
        X = rng.standard_normal((300, 1))
        y = X @ np.array([rng.uniform(-1.5, 1.5)]) + rng.standard_normal(300)
        grid = GridSpec(axes=((-3.0, 3.0, 0.01),))
        pool, member, envelope = [], [], []
        real_grid_values = solver._WitnessPoolAudit.grid_values
        real_terms = solver._WitnessPoolAudit.terms

        def grid_values(self, losses, psis):
            pool.append(self.pool_losses)
            return real_grid_values(self, losses, psis)

        def counted(self, losses, psis):
            out = real_terms(self, losses, psis)
            (member if np.shares_memory(self.pool_losses, pool[0]) else envelope).append(out.size)
            return out

        monkeypatch.setattr(solver._WitnessPoolAudit, "grid_values", grid_values)
        monkeypatch.setattr(solver._WitnessPoolAudit, "terms", counted)
        fit = oracle_grid_fit(Dataset(X, y), make_partition(300, 15), ObjectiveConfig(), grid, grid)
        k = fit.grid_f.shape[0]
        assert k <= sum(member) <= 20 * k
        assert 0 < sum(envelope) < -(-k // 16) * k


# An axis ends a whole number of steps past lo, plus a fraction of a step
# near the half step that ``points`` adds to hi.
_AXES = st.tuples(
    st.integers(-300, 300).map(lambda k: k / 100),
    st.sampled_from([0.01, 0.1, 0.25, 0.3, 1 / 3, 0.7, 1.0]),
    st.integers(0, 40),
    st.sampled_from([0.0, 1e-12, 0.49, 0.5, 0.51, 0.99]),
).map(lambda t: (t[0], t[0] + (t[2] + t[3]) * t[1], t[1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_AXES, min_size=1, max_size=3))
def test_grid_sizes_count_the_points(axes):
    grid = GridSpec(axes=tuple(axes))
    assert math.prod(grid.sizes()) == len(grid.points())
    assert grid.sizes() == [len(np.unique(col)) for col in grid.points().T]


@st.composite
def _grid_audits(draw):
    """A pool holding the block losses of a 1-d grid of thetas, in grid order
    or shuffled, with inf entries or rows and ties, and candidates that are
    the pool itself, some of its rows or fresh thetas."""
    size = draw(st.one_of(
        st.sampled_from([1, 15, 16, 17, 32, 33, 63, 64, 65, 128, 129, 192, 193, 200, 257]),
        st.integers(1, 300),
    ))
    n = draw(st.sampled_from(range(1, 16, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.standard_normal(n)
    thetas = np.linspace(-2.0, 2.0, size)
    cand_kind = draw(st.sampled_from(["pool", "rows", "fresh"]))
    if cand_kind == "fresh":
        cands = rng.uniform(-3.0, 3.0, draw(st.integers(1, 20)))
    elif cand_kind == "rows":
        cands = thetas[rng.integers(0, size, draw(st.integers(1, 20)))]
    else:
        cands = thetas
    losses, cand_losses = (np.square(t[:, None] - centers) for t in (thetas, cands))
    if draw(st.booleans()):  # coarse losses: many tied terms
        losses, cand_losses = np.round(losses, 1), np.round(cand_losses, 1)
    inf_frac = draw(st.sampled_from([0.0, 0.1, 0.6]))
    losses[rng.random(losses.shape) < inf_frac] = np.inf
    cand_losses[rng.random(cand_losses.shape) < inf_frac] = np.inf
    if draw(st.booleans()):  # thetas past a cut overflow in every block
        cut = draw(st.floats(-2.0, 2.0))
        losses[thetas > cut] = np.inf
        cand_losses[cands > cut] = np.inf
    lam = draw(st.sampled_from([0.0, 0.05, 2.0]))
    pool_psi, cand_psi = np.abs(thetas), np.abs(cands)
    if draw(st.booleans()):
        order = rng.permutation(size)
        losses, pool_psi = losses[order], pool_psi[order]
    return solver._WitnessPoolAudit(losses, pool_psi, lam), cand_losses, cand_psi


# Bit for bit, NaN positions (inf - inf) included, whatever the pool order,
# size (below, at and across a 16-member leaf and a 64-member group, with
# up to five groups) and block count.
@settings(max_examples=300, deadline=None)
@given(_grid_audits())
def test_grid_values_equal_the_full_audit(case):
    audit, losses, psis = case
    with np.errstate(invalid="ignore"):
        got = audit.grid_values(losses, psis)
        want = audit.value_from_losses(losses, psis)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert np.array_equal(got, want, equal_nan=True)
    np.testing.assert_array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))
