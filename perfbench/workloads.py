"""The benchmark's three workloads.

Every input is generated here, from the run seed or from the acceptance
suite's frozen seeds, with the benchmark's own copies of the Gaussian
design and corruption recipes; ``momreg`` receives only ``Dataset`` and
``BlockPartition`` objects.  Each workload is a closed loop: one caller,
one operation at a time.

An operation runs its main call and its auxiliary calls inside two timed
regions and returns an ``OpResult``; checks run after the timed regions.
The first ``min_ops`` operations of a schedule are fixed by the workload
(the frozen acceptance trials come first), so the quality metrics, which
are computed on the frozen trials only, repeat exactly from run to run.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import momreg
import momreg.cli

MAGNITUDE = 1e6
HUGE = "huge_response"
LEVERAGE = "adversarial_leverage"


# ---------------------------------------------------------------------------
# input recipes (mirrors of datagen.generate / datagen.corrupt, kept here so
# that editing datagen cannot change what the benchmark feeds the solver)
# ---------------------------------------------------------------------------

def gaussian_linear(N: int, d: int, theta_star, noise_scale: float, seed):
    """X ~ N(0, I_d) rows and y = X theta* + sigma eps, drawn as generate() does."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, d))
    eps = noise_scale * rng.standard_normal(N)
    return X, X @ np.asarray(theta_star, dtype=np.float64) + eps


def corrupt_rows(X, y, mode: str, count: int, magnitude: float, seed):
    """Corrupt `count` seeded rows; returns copies and the sorted row indices.

    huge_response sets y to the magnitude; adversarial_leverage parks the
    design row at magnitude * e_0 and sets y to -magnitude.
    """
    idx = np.sort(np.random.default_rng(seed).choice(X.shape[0], count, replace=False))
    X = X.copy()
    y = y.copy()
    if mode == HUGE:
        y[idx] = magnitude
    elif mode == LEVERAGE:
        X[idx] = 0.0
        X[idx, 0] = magnitude
        y[idx] = -magnitude
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return X, y, idx


def criterion3_instance(seed):
    """One d=1 instance of the grid-oracle regime: N=300, theta* ~ U(-1.5, 1.5)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((300, 1))
    theta_star = np.array([rng.uniform(-1.5, 1.5)])
    return X, X @ theta_star + rng.standard_normal(300), theta_star


def _stream(seed: int, stream: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), int(stream), int(index)])


def _int_seed(seed: int, stream: int, index: int) -> int:
    return int(_stream(seed, stream, index).generate_state(1)[0])


def theta_ok(theta, d: int) -> bool:
    theta = np.asarray(theta)
    return theta.shape == (d,) and bool(np.all(np.isfinite(theta)))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    """One operation: timings of its main and auxiliary calls, checks, quality."""

    kind: str  # sub-regime: "a", "b" or "verify"
    frozen: bool
    main_s: float = math.nan
    aux_s: float = math.nan
    ok: bool = False
    error: str = ""
    quality: dict = field(default_factory=dict)


def _median_ratio(results, kind: str) -> float:
    rows = [r.quality for r in results if r.frozen and r.ok and r.kind == kind]
    if not rows:
        return math.nan
    return float(np.median([q["excess"] for q in rows])) / float(
        np.median([q["clean_ols_excess"] for q in rows])
    )


def _pass_rate(results, kind: str) -> float:
    rows = [r.quality for r in results if r.frozen and r.ok and r.kind == kind]
    if not rows:
        return math.nan
    return float(np.mean([q["passed"] for q in rows]))


# ---------------------------------------------------------------------------
# Monte Carlo fit workloads
# ---------------------------------------------------------------------------

class _FitWorkload:
    """Shared loop of the two Monte Carlo workloads: sub-regime a and b
    trials alternate; the frozen acceptance trials run first, then trials
    from the run seed's pool, cycled."""

    d: int
    N = 1000
    blocks = 51

    def __init__(self, seed: int, frozen: int = 50, pool: int | None = None):
        self.seed = seed
        self.partition = momreg.make_partition(self.N, self.blocks)
        self.design = momreg.DesignSpec.identity(self.d)
        # frozen trial s: data seed s, corruption seed s + offset, solver seed s
        self.frozen_ops = []
        for s in range(frozen):
            self.frozen_ops.extend(self._trials(s, s + self.corrupt_offset, s, True))
        self.pool_ops = []
        for j in range(((pool or self.pool) + 1) // 2):
            self.pool_ops.extend(
                self._trials(_stream(seed, 1, j), _stream(seed, 2, j), _int_seed(seed, 3, j), False)
            )
        self.min_ops = len(self.frozen_ops)

    def schedule(self):
        return itertools.chain(self.frozen_ops, itertools.cycle(self.pool_ops))

    def close(self) -> None:
        pass

    def warmup_op(self):
        return self.pool_ops[0]

    def quality(self, results) -> dict:
        return {
            "risk_ratio_a": _median_ratio(results, "a"),
            "risk_ratio_b": _median_ratio(results, "b"),
            "pass_frac_a": _pass_rate(results, "a"),
            "pass_frac_b": _pass_rate(results, "b"),
        }

    def gate(self) -> OpResult:
        """Untimed proof that the theta check rejects what it must."""
        res = OpResult("gate", False)
        res.ok = (
            theta_ok(np.ones(self.d), self.d)
            and not theta_ok(np.full(self.d, np.nan), self.d)
            and not theta_ok(np.ones(self.d + 1), self.d)
        )
        if not res.ok:
            res.error = "theta check accepts a non-finite or wrongly shaped theta"
        return res


class CorruptD5(_FitWorkload):
    """Criterion 4: d=5, N=1000, theta*=1, sigma=1, n=51, 10 rows at 1e6."""

    name = "mc_corrupt_d5"
    names = {
        "op_ms_p50": "fit_ms_p50",
        "op_ms_p90": "fit_ms_p90",
        "aux_ms_p50": "baselines_ms_p50",
        "risk_ratio_a": "mom_clean_ratio_huge",
        "risk_ratio_b": "mom_clean_ratio_leverage",
        "pass_frac_a": "theorem1_conf_huge",
        "pass_frac_b": "theorem1_conf_leverage",
    }
    d = 5
    pool = 256
    corrupt_offset = 9999
    params = momreg.ConditionParams(gamma1=0.5, gamma2=0.2, r=2.0, rho=1.0)

    def _trials(self, data_seed, corrupt_seed, solver_seed, frozen):
        theta_star = np.ones(self.d)
        X, y = gaussian_linear(self.N, self.d, theta_star, 1.0, data_seed)
        clean = momreg.Dataset(X, y)
        ops = []
        for kind, mode in (("a", HUGE), ("b", LEVERAGE)):
            Xb, yb, _ = corrupt_rows(X, y, mode, 10, MAGNITUDE, corrupt_seed)
            ops.append((kind, frozen, clean, momreg.Dataset(Xb, yb), solver_seed))
        return ops

    def run(self, op) -> OpResult:
        kind, frozen, clean, bad, solver_seed = op
        res = OpResult(kind, frozen)
        obj = momreg.ObjectiveConfig()
        cfg = momreg.SolverConfig(seed=solver_seed)
        theta_star = np.ones(self.d)
        t0 = time.perf_counter()
        fit = momreg.mom_minimax_fit(bad, self.partition, obj, cfg)
        t1 = time.perf_counter()
        clean_theta = momreg.erm_fit(clean).theta
        bad_theta = momreg.erm_fit(bad).theta
        excess = momreg.excess_risk(fit.theta_hat, theta_star, self.design)
        clean_excess = momreg.excess_risk(clean_theta, theta_star, self.design)
        bad_excess = momreg.excess_risk(bad_theta, theta_star, self.design)
        diag = momreg.theorem1_check(fit.theta_hat, theta_star, self.design, self.params)
        t2 = time.perf_counter()
        res.main_s, res.aux_s = t1 - t0, t2 - t1
        res.ok = theta_ok(fit.theta_hat, self.d) and all(
            math.isfinite(v) for v in (excess, clean_excess, bad_excess)
        )
        if not res.ok:
            res.error = "non-finite or wrongly shaped theta_hat or excess risk"
        res.quality = {"excess": excess, "clean_ols_excess": clean_excess, "passed": diag.passed}
        return res


class SparseL1D50(_FitWorkload):
    """Criterion 10: d=50, s=3, N=1000, n=51, l1 at the lambda-window midpoint."""

    name = "mc_sparse_l1_d50"
    names = {
        "op_ms_p50": "fit_ms_p50",
        "op_ms_p90": "fit_ms_p90",
        "aux_ms_p50": "checks_ms_p50",
        "risk_ratio_a": "mom_clean_ratio_clean",
        "risk_ratio_b": "mom_clean_ratio_corrupt",
        "pass_frac_a": "theorem2_conf_clean",
        "pass_frac_b": "theorem2_conf_corrupt",
    }
    d = 50
    pool = 32
    corrupt_offset = 7777
    params = momreg.ConditionParams(gamma1=0.8, gamma2=0.1, r=0.25, rho=0.21875)

    def __init__(self, seed: int, frozen: int = 50, pool: int | None = None):
        lo, hi = momreg.lambda_window(self.params)
        self.objective = momreg.ObjectiveConfig((lo + hi) / 2.0, momreg.Regularizer.l1())
        self.theta_star = np.zeros(self.d)
        self.theta_star[:3] = 1.0
        super().__init__(seed, frozen, pool)

    def _trials(self, data_seed, corrupt_seed, solver_seed, frozen):
        X, y = gaussian_linear(self.N, self.d, self.theta_star, 1.0, data_seed)
        clean = momreg.Dataset(X, y)
        Xb, yb, _ = corrupt_rows(X, y, HUGE, 10, MAGNITUDE, corrupt_seed)
        return [
            ("a", frozen, clean, clean, solver_seed),
            ("b", frozen, momreg.Dataset(Xb, yb), clean, solver_seed),
        ]

    def run(self, op) -> OpResult:
        kind, frozen, data, clean, solver_seed = op
        res = OpResult(kind, frozen)
        cfg = momreg.SolverConfig(seed=solver_seed)
        t0 = time.perf_counter()
        fit = momreg.mom_minimax_fit(data, self.partition, self.objective, cfg)
        t1 = time.perf_counter()
        clean_theta = momreg.erm_fit(clean).theta
        excess = momreg.excess_risk(fit.theta_hat, self.theta_star, self.design)
        clean_excess = momreg.excess_risk(clean_theta, self.theta_star, self.design)
        diag = momreg.theorem2_check(
            fit.theta_hat, self.theta_star, self.design, self.params,
            self.objective.regularizer,
        )
        t2 = time.perf_counter()
        res.main_s, res.aux_s = t1 - t0, t2 - t1
        res.ok = theta_ok(fit.theta_hat, self.d) and all(
            math.isfinite(v) for v in (excess, clean_excess)
        )
        if not res.ok:
            res.error = "non-finite or wrongly shaped theta_hat or excess risk"
        res.quality = {"excess": excess, "clean_ols_excess": clean_excess, "passed": diag.passed}
        return res



# ---------------------------------------------------------------------------
# verifier workload
# ---------------------------------------------------------------------------

_VERIFY_CONFIG = {
    "data": {
        "generate": {
            "n_samples": 5000,
            "dim": 3,
            "theta_star": [1.0, -0.5, 2.0],
            "covariance": "identity",
            "noise": {"kind": "gaussian", "scale": 1.0, "dof": None},
        }
    },
    "partition": {"blocks": 101},
    "conditions": {"gamma1": 0.5, "gamma2": 0.2, "r": 2.0, "rho": 1.0, "probes": 200},
    "verify": {"lemma_instances": 200, "delta_budget": 200, "negative_control": False},
}
_LEMMA_REGIMES = ("far", "scaled_far", "scaled_near", "sphere_near")


class VerifySuite:
    """Criterion-6/8 `momreg verify` runs and criterion-3 grid-oracle instances.

    Blocks of `block` d=1 oracle instances (oracle_grid_fit + a phi_hat
    certificate at its argmin; clean data, sub-regime a, alternating with
    3 rows at 1e6, sub-regime b) alternate with blocks of `verifies`
    verify runs.  Interleaving single verify runs would slow the oracle
    instance after each one and blur the oracle's tail percentile.
    """

    name = "verify_suite"
    names = {
        "op_ms_p50": "oracle_ms_p50",
        "op_ms_p90": "oracle_ms_p90",
        "aux_ms_p50": "verify_ms_p50",
        "risk_ratio_a": "oracle_clean_ratio_clean",
        "risk_ratio_b": "oracle_clean_ratio_corrupt",
        "pass_frac_a": "lemma_hold_frac",
        "pass_frac_b": "condition_probe_pass_frac",
    }
    grid = momreg.GridSpec(axes=((-3.0, 3.0, 0.01),))

    def __init__(self, seed: int, frozen: int = 20, pool: int = 256, block: int = 40,
                 verifies: int = 5, quality_verifies: int = 10, min_oracles: int = 160):
        self.seed = seed
        self.partition = momreg.make_partition(300, 15)
        self.design = momreg.DesignSpec.identity(1)
        self.frozen_oracles = []
        for s in range(frozen):
            self.frozen_oracles.extend(self._instances(1000 + s, s + 9999, s, True))
        self.pool_oracles = []
        for j in range((pool + 1) // 2):
            self.pool_oracles.extend(
                self._instances(_stream(seed, 5, j), _stream(seed, 6, j), _int_seed(seed, 7, j), False)
            )
        self.workdir = tempfile.mkdtemp(prefix=".work-", dir=os.path.dirname(__file__))
        self.config_path = os.path.join(self.workdir, "verify.json")
        self.control_path = os.path.join(self.workdir, "verify_negative_control.json")
        control = json.loads(json.dumps(_VERIFY_CONFIG))
        control["verify"]["negative_control"] = True
        for path, cfg in ((self.config_path, _VERIFY_CONFIG), (self.control_path, control)):
            with open(path, "w") as fh:
                json.dump(cfg, fh)
        self.block = block
        self.verifies = verifies
        self.quality_verifies = quality_verifies
        # whole blocks covering the frozen oracles, min_oracles oracle
        # timings and the quality verify runs
        blocks = max(
            math.ceil(max(len(self.frozen_oracles), min_oracles) / block),
            math.ceil(quality_verifies / verifies),
        )
        self.min_ops = blocks * (block + verifies)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _instances(self, data_seed, corrupt_seed, phi_seed, frozen):
        X, y, theta_star = criterion3_instance(data_seed)
        clean = momreg.Dataset(X, y)
        Xb, yb, _ = corrupt_rows(X, y, HUGE, 3, MAGNITUDE, corrupt_seed)
        return [
            ("a", frozen, clean, clean, theta_star, phi_seed),
            ("b", frozen, momreg.Dataset(Xb, yb), clean, theta_star, phi_seed),
        ]

    def schedule(self):
        oracles = itertools.chain(self.frozen_oracles, itertools.cycle(self.pool_oracles))
        verify_seeds = (_int_seed(self.seed, 8, k) for k in itertools.count())
        while True:
            yield from itertools.islice(oracles, self.block)
            for seed in itertools.islice(verify_seeds, self.verifies):
                yield ("verify", seed)

    def warmup_op(self):
        return self.pool_oracles[0]

    def run(self, op) -> OpResult:
        if op[0] == "verify":
            return self._verify(op[1])
        return self._oracle(op)

    def _verify(self, seed: int, config_path=None, expect: int = 0) -> OpResult:
        res = OpResult("verify", False)
        argv = ["verify", "--config", config_path or self.config_path, "--seed", str(seed)]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = momreg.cli.main(argv)
        res.aux_s = time.perf_counter() - t0
        if code != expect:
            res.error = f"verify exited {code}, expected {expect}: {err.getvalue().strip()[:200]}"
            return res
        if expect != 0:
            res.ok = True
            return res
        agg = json.loads(out.getvalue())
        checked = agg["lemma"]["checked"]
        violations = len(agg["lemma"]["violations"])
        probes = [
            v for key in ("condition_one", "condition_two")
            for v in agg[key]["per_probe_pass"]
        ]
        res.quality = {
            "checked": sum(checked.values()),
            "violations": violations,
            "probes": len(probes),
            "probes_passed": sum(probes),
        }
        res.ok = violations == 0 and all(checked.get(key, 0) > 0 for key in _LEMMA_REGIMES)
        if not res.ok:
            res.error = f"{violations} lemma violations; checked counts {checked}"
        return res

    def _oracle(self, op) -> OpResult:
        kind, frozen, data, clean, theta_star, phi_seed = op
        res = OpResult(kind, frozen)
        obj = momreg.ObjectiveConfig()
        t0 = time.perf_counter()
        fit = momreg.oracle_grid_fit(data, self.partition, obj, self.grid, self.grid)
        cert = momreg.phi_hat(fit.predictor, data, self.partition, seed=phi_seed)
        res.main_s = time.perf_counter() - t0
        best = int(np.argmin(fit.objective))
        res.ok = (
            theta_ok(fit.theta_hat, 1)
            and -3.0 <= float(fit.theta_hat[0]) <= 3.0
            and bool(np.all(np.isfinite(fit.objective)))
            and float(fit.theta_hat[0]) == float(fit.grid_f[best, 0])
            # phi_hat starts an ascent at f itself, whose increments are 0
            and math.isfinite(cert.value)
            and cert.value >= 0.0
        )
        if not res.ok:
            res.error = "oracle argmin or phi_hat certificate failed its checks"
            return res
        clean_theta = momreg.erm_fit(clean).theta
        res.quality = {
            "excess": float((fit.theta_hat[0] - theta_star[0]) ** 2),
            "clean_ols_excess": float((clean_theta[0] - theta_star[0]) ** 2),
        }
        return res

    def gate(self) -> OpResult:
        """Untimed negative-control verify: must exit 1, proving the gate is live."""
        res = self._verify(_int_seed(self.seed, 9, 0), self.control_path, expect=1)
        res.kind = "gate"
        return res

    def quality(self, results) -> dict:
        runs = [r.quality for r in results if r.kind == "verify" and r.ok]
        runs = runs[: self.quality_verifies]
        checked = sum(q["checked"] for q in runs)
        probes = sum(q["probes"] for q in runs)
        return {
            "risk_ratio_a": _median_ratio(results, "a"),
            "risk_ratio_b": _median_ratio(results, "b"),
            "pass_frac_a": (
                1.0 - sum(q["violations"] for q in runs) / checked if checked else math.nan
            ),
            "pass_frac_b": (
                sum(q["probes_passed"] for q in runs) / probes if probes else math.nan
            ),
        }


WORKLOADS = {cls.name: cls for cls in (CorruptD5, SparseL1D50, VerifySuite)}
