"""Command-line experiment harness.

Subcommands: fit, simulate, verify, corrupt-bench.  Configuration is a
single JSON document; CLI flags override config fields and the fully
resolved config is embedded in every report, so any Monte Carlo claim in a
report can be audited and reproduced from the report alone.

Report files are byte-identical across reruns with the same config and
seed; wall-clock information lives in a separate "meta" field excluded
from that comparison.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .datagen import CorruptionSpec, NoiseSpec, corrupt, generate
from .errors import ConfigError, MomregError
from .model import (
    DesignSpec,
    LinearPredictor,
    load_dataset,
    make_partition,
    permute_dataset,
)
from .objective import (
    ConditionParams,
    ObjectiveConfig,
    Regularizer,
    default_slope_weights,
    lambda_window,
)
from .solver import SolverConfig, erm_fit, mom_minimax_fit
from .verify import (
    check_condition_one,
    check_condition_two,
    estimate_delta,
    excess_risk,
    lemma_sweep,
    sample_sphere_probes,
    theorem1_check,
    theorem2_check,
)

DEFAULT_CONFIG: dict = {
    "mode": "simulate",
    "data": {
        "csv": None,
        "generate": {
            "n_samples": 1000,
            "dim": 5,
            "theta_star": {"sparse": {"support": 5, "value": 1.0}},
            "covariance": "identity",
            "noise": {"kind": "gaussian", "scale": 1.0, "dof": None},
        },
    },
    "partition": {"blocks": 51, "permute": False},
    "objective": {"lambda": 0.0, "regularizer": "none", "slope_weights": None},
    "solver": {
        "step_f": None,
        "step_g": None,
        "iterations": 300,
        "restarts": 2,
        "tolerance": 1e-6,
        "decay": True,
    },
    "conditions": {
        "gamma1": 0.5,
        "gamma2": 0.2,
        "r": 2.0,
        "rho": 1.0,
        "block_fraction": 0.9,
        "probes": 0,
        "far_distance": None,
        "near_distance": None,
    },
    "corruption": None,
    "verify": {
        "lemma_instances": 200,
        "delta_budget": 200,
        "r_grid": None,
        "negative_control": False,
    },
    "trials": 1,
    "seed": 0,
    "workers": 1,
    "out": None,
    "csv_out": None,
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in out:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(out[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


# Largest count a config may ask for (samples, dimensions, blocks, trials,
# iterations, probes, instances): far beyond any run that fits in memory,
# so a larger value is a typo, not a request.
_MAX_COUNT = 10**9
# Worker processes are forked all at once when the pool starts.
_MAX_WORKERS = 256


def _at_least(lo):
    return (f">= {lo}", lambda v: v >= lo)


def _between(lo, hi):
    return (f"in [{lo}, {hi}]", lambda v: lo <= v <= hi)


def _one_of(*choices):
    return (f"one of {', '.join(choices)}", lambda v: v in choices)


_POSITIVE = ("> 0", lambda v: v > 0)
_COUNT = _between(0, _MAX_COUNT)
_POSITIVE_COUNT = _between(1, _MAX_COUNT)

# Every config value by dotted key: the types it may take and the range a
# number (or each number of a list) or a string must lie in.  Nested keys
# are checked only where their parent is an object, and keys absent from
# the document (such as optional corruption fields) are not checked.
_CONFIG_RULES = {
    "data": (("object",), None),
    "data.csv": (("string", "null"), None),
    "data.generate": (("object",), None),
    "data.generate.n_samples": (("int",), _POSITIVE_COUNT),
    "data.generate.dim": (("int",), _POSITIVE_COUNT),
    "data.generate.theta_star": (("object", "numbers"), None),
    "data.generate.theta_star.sparse": (("object",), None),
    "data.generate.theta_star.sparse.support": (("int",), _COUNT),
    "data.generate.theta_star.sparse.value": (("number",), None),
    "data.generate.covariance": (("string", "null", "matrix"), _one_of("identity")),
    "data.generate.noise": (("object",), None),
    "data.generate.noise.kind": (("string",), None),
    "data.generate.noise.scale": (("number",), _POSITIVE),
    "data.generate.noise.dof": (("number", "null"), None),
    "partition": (("object",), None),
    "partition.blocks": (("int",), _POSITIVE_COUNT),
    "partition.permute": (("bool",), None),
    "objective": (("object",), None),
    "objective.lambda": (("number",), _at_least(0)),
    "objective.regularizer": (("string",), _one_of("none", "l1", "slope")),
    "objective.slope_weights": (("numbers", "null"), None),
    "solver": (("object",), None),
    "solver.step_f": (("number", "null"), _POSITIVE),
    "solver.step_g": (("number", "null"), _POSITIVE),
    "solver.iterations": (("int",), _POSITIVE_COUNT),
    "solver.restarts": (("int",), _POSITIVE_COUNT),
    "solver.tolerance": (("number",), _POSITIVE),
    "solver.decay": (("bool",), None),
    "conditions": (("object",), None),
    "conditions.gamma1": (("number",), _POSITIVE),
    "conditions.gamma2": (("number",), _POSITIVE),
    "conditions.r": (("number",), _POSITIVE),
    "conditions.rho": (("number",), _POSITIVE),
    "conditions.block_fraction": (("number",), _between(0, 1)),
    "conditions.probes": (("int",), _COUNT),
    "conditions.far_distance": (("number", "null"), _at_least(0)),
    "conditions.near_distance": (("number", "null"), _at_least(0)),
    "corruption": (("object", "null"), None),
    "corruption.count": (("int",), _COUNT),
    "corruption.mode": (("string",), None),
    "corruption.magnitude": (("number",), _POSITIVE),
    "corruption.indices": (("ints", "null"), None),
    "verify": (("object",), None),
    "verify.lemma_instances": (("int",), _COUNT),
    "verify.delta_budget": (("int",), _COUNT),
    "verify.r_grid": (("numbers", "null"), _at_least(0)),
    "verify.negative_control": (("bool",), None),
    "trials": (("int",), _POSITIVE_COUNT),
    "seed": (("int",), _at_least(0)),
    "workers": (("int",), _between(1, _MAX_WORKERS)),
    "out": (("string", "null"), None),
    "csv_out": (("string", "null"), None),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


# Type name -> (description, test).
_TYPES = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "null": ("null", lambda v: v is None),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "number": ("a finite number", _is_number),
    "numbers": ("a list of finite numbers", _is_numbers),
    "ints": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "matrix": (
        "a list of equal-length lists of finite numbers",
        lambda v: isinstance(v, list)
        and all(map(_is_numbers, v))
        and len({len(row) for row in v}) <= 1,
    ),
}


def _in_range(value, kinds, allowed) -> bool:
    if allowed is None or value is None:
        return True
    if isinstance(value, list):
        # each number of a list; a matrix has no range
        return "numbers" not in kinds or all(map(allowed[1], value))
    return allowed[1](value)


def _check_config(cfg: dict) -> None:
    """Raise ConfigError for the first value of the wrong type or range."""
    for key, (kinds, allowed) in _CONFIG_RULES.items():
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            node = node.get(part)
            if not isinstance(node, dict):
                break
        else:
            if leaf not in node:
                continue
            value = node[leaf]
            if not any(_TYPES[kind][1](value) for kind in kinds):
                expected = " or ".join(_TYPES[kind][0] for kind in kinds)
                raise ConfigError(f"{key} must be {expected}, got {value!r}")
            if not _in_range(value, kinds, allowed):
                raise ConfigError(f"{key} must be {allowed[0]}, got {value!r}")


def resolve_config(raw: dict | None, overrides: dict | None = None) -> dict:
    """Merge a config document and CLI overrides over DEFAULT_CONFIG and
    check every value against _CONFIG_RULES; bad values raise ConfigError."""
    cfg = _deep_merge(DEFAULT_CONFIG, raw or {})
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key == "blocks":
            cfg["partition"]["blocks"] = val
        else:
            cfg[key] = val
    _check_config(cfg)
    n = cfg["partition"]["blocks"]
    if n % 2 == 0:
        print(
            f"warning: even block count {n} auto-decremented to {n - 1}",
            file=sys.stderr,
        )
        cfg["partition"]["blocks"] = n - 1
    return cfg


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------

def _design_from_config(gen: dict) -> DesignSpec:
    cov = gen["covariance"]
    if cov == "identity" or cov is None:
        return DesignSpec.identity(gen["dim"])
    return DesignSpec(np.asarray(cov, dtype=np.float64))


def _theta_star_from_config(gen: dict) -> np.ndarray:
    spec = gen["theta_star"]
    d = gen["dim"]
    if isinstance(spec, dict):
        sparse = spec["sparse"]
        support = int(sparse["support"])
        if support > d:
            raise ConfigError("sparse support exceeds dimension")
        theta = np.zeros(d)
        theta[:support] = float(sparse["value"])
        return theta
    theta = np.asarray(spec, dtype=np.float64)
    if theta.shape != (d,):
        raise ConfigError(f"theta_star must have {d} entries")
    return theta


def _noise_from_config(gen: dict) -> NoiseSpec:
    nz = gen["noise"]
    return NoiseSpec(kind=nz["kind"], scale=nz["scale"], dof=nz.get("dof"))


def _objective_from_config(cfg: dict, dim: int) -> ObjectiveConfig:
    obj = cfg["objective"]
    kind = obj["regularizer"]
    lam = float(obj["lambda"])
    if kind == "none":
        return ObjectiveConfig()
    if kind == "l1":
        return ObjectiveConfig(lam, Regularizer.l1())
    if kind == "slope":
        weights = obj.get("slope_weights")
        w = (
            np.asarray(weights, dtype=np.float64)
            if weights is not None
            else default_slope_weights(dim)
        )
        return ObjectiveConfig(lam, Regularizer.slope(w))
    raise ConfigError(f"unknown regularizer {kind!r}")


def _solver_from_config(cfg: dict, seed: int) -> SolverConfig:
    s = cfg["solver"]
    return SolverConfig(
        step_f=s["step_f"],
        step_g=s["step_g"],
        iterations=int(s["iterations"]),
        restarts=int(s["restarts"]),
        tolerance=float(s["tolerance"]),
        seed=seed,
        decay=bool(s["decay"]),
    )


def _params_from_config(cfg: dict) -> ConditionParams:
    c = cfg["conditions"]
    return ConditionParams(
        gamma1=float(c["gamma1"]),
        gamma2=float(c["gamma2"]),
        r=float(c["r"]),
        rho=float(c["rho"]),
    )


def _corruption_from_config(cfg: dict) -> CorruptionSpec | None:
    c = cfg["corruption"]
    if c is None or c.get("count", 0) == 0:
        return None
    return CorruptionSpec(
        count=int(c["count"]),
        mode=c.get("mode", "huge_response"),
        magnitude=float(c.get("magnitude", 1e6)),
        indices=tuple(c["indices"]) if c.get("indices") else None,
    )


def _require_generated(cfg: dict, mode: str) -> None:
    """Only fit reads data.csv; the other modes need theta_star and fresh
    samples, so a CSV there is a configuration error, not silently ignored."""
    if cfg["data"]["csv"] is not None:
        raise ConfigError(f"{mode} generates its data; data.csv is read by fit only")


def _trial_seed(master: int, trial: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(master), int(trial), int(stream)])


def _solver_seed(master: int, trial: int) -> int:
    return int(_trial_seed(master, trial, 2).generate_state(1)[0])


# ---------------------------------------------------------------------------
# single-trial pipeline (module-level so worker processes can pickle it)
# ---------------------------------------------------------------------------

def _run_single_trial(payload: tuple[str, int]) -> dict:
    cfg = json.loads(payload[0])
    trial = payload[1]
    master = cfg["seed"]
    gen = cfg["data"]["generate"]
    design = _design_from_config(gen)
    theta_star = _theta_star_from_config(gen)
    noise = _noise_from_config(gen)

    data = generate(
        gen["n_samples"], gen["dim"], theta_star, design, noise,
        _trial_seed(master, trial, 0),
    )
    corrupted_indices = None
    spec = _corruption_from_config(cfg)
    clean = data
    if spec is not None:
        data, corrupted_indices = corrupt(data, spec, _trial_seed(master, trial, 1))
    if cfg["partition"]["permute"]:
        data = permute_dataset(data, _trial_seed(master, trial, 3))
    p = make_partition(data.n_samples, cfg["partition"]["blocks"])

    obj = _objective_from_config(cfg, gen["dim"])
    solver_cfg = _solver_from_config(cfg, _solver_seed(master, trial))
    result = mom_minimax_fit(data, p, obj, solver_cfg)
    f_star = LinearPredictor(theta_star)
    ols = erm_fit(data)
    clean_ols = erm_fit(clean) if spec is not None else ols

    params = _params_from_config(cfg)
    record: dict = {
        "trial": trial,
        "mom": {
            "theta_hat": [float(v) for v in result.theta_hat],
            "excess_risk": excess_risk(result.theta_hat, theta_star, design),
            "converged": result.converged,
            "best_surrogate": result.best_surrogate,
        },
        "ols": {
            "theta_hat": [float(v) for v in ols.theta],
            "excess_risk": excess_risk(ols.theta, theta_star, design),
        },
        "corrupted_indices": corrupted_indices,
    }
    if spec is not None:
        record["clean_ols"] = {
            "excess_risk": excess_risk(clean_ols.theta, theta_star, design)
        }

    reports = None
    n_probes = int(cfg["conditions"]["probes"])
    if n_probes > 0:
        rng = np.random.default_rng(_trial_seed(master, trial, 4))
        far_dist = cfg["conditions"]["far_distance"] or params.r
        near_dist = cfg["conditions"]["near_distance"] or params.r / 2.0
        far = sample_sphere_probes(f_star, design, far_dist, n_probes, rng)
        near = sample_sphere_probes(f_star, design, near_dist, n_probes, rng)
        rep1 = check_condition_one(
            data, p, f_star, far, params.gamma1, params.r, design,
            cfg["conditions"]["block_fraction"],
        )
        rep2 = check_condition_two(
            data, p, f_star, near, params.gamma2, params.r, design,
            fraction_threshold=cfg["conditions"]["block_fraction"],
        )
        reports = (rep1, rep2)
        record["conditions"] = {
            "one": rep1.to_dict(),
            "two": rep2.to_dict(),
        }

    record["theorem1"] = theorem1_check(
        result.theta_hat, theta_star, design, params, reports
    ).to_dict()
    if obj.lam > 0.0:
        record["theorem2"] = theorem2_check(
            result.theta_hat, theta_star, design, params, obj.regularizer
        ).to_dict()
    return record


def _run_corrupt_bench_trial(payload: tuple[str, int]) -> dict:
    cfg = json.loads(payload[0])
    trial = payload[1]
    master = cfg["seed"]
    gen = cfg["data"]["generate"]
    design = _design_from_config(gen)
    theta_star = _theta_star_from_config(gen)
    noise = _noise_from_config(gen)

    clean = generate(
        gen["n_samples"], gen["dim"], theta_star, design, noise,
        _trial_seed(master, trial, 0),
    )
    spec = _corruption_from_config(cfg) or CorruptionSpec(count=10)
    bad, corrupted_indices = corrupt(clean, spec, _trial_seed(master, trial, 1))
    p = make_partition(bad.n_samples, cfg["partition"]["blocks"])

    obj = _objective_from_config(cfg, gen["dim"])
    solver_cfg = _solver_from_config(cfg, _solver_seed(master, trial))
    mom = mom_minimax_fit(bad, p, obj, solver_cfg)
    return {
        "trial": trial,
        "clean_ols_excess": excess_risk(erm_fit(clean).theta, theta_star, design),
        "corrupted_ols_excess": excess_risk(erm_fit(bad).theta, theta_star, design),
        "mom_excess": excess_risk(mom.theta_hat, theta_star, design),
        "corrupted_indices": corrupted_indices,
    }


_ROUTING_KEYS = ("out", "csv_out", "workers")


def _embed_config(cfg: dict) -> dict:
    """Resolved config as embedded in reports: I/O routing fields live in
    meta so reports stay byte-identical wherever they are written."""
    return {k: copy.deepcopy(v) for k, v in cfg.items() if k not in _ROUTING_KEYS}


def _map_trials(worker, cfg: dict) -> list[dict]:
    payloads = [(json.dumps(cfg, sort_keys=True), t) for t in range(cfg["trials"])]
    if cfg["workers"] > 1:
        with ProcessPoolExecutor(max_workers=min(cfg["workers"], len(payloads))) as pool:
            records = list(pool.map(worker, payloads))
    else:
        records = [worker(pl) for pl in payloads]
    return sorted(records, key=lambda rec: rec["trial"])


def _quantiles(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "q05": float(np.percentile(arr, 5)),
        "q25": float(np.percentile(arr, 25)),
        "median": float(np.percentile(arr, 50)),
        "q75": float(np.percentile(arr, 75)),
        "q95": float(np.percentile(arr, 95)),
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_fit(cfg: dict) -> dict:
    """Fit once on a CSV (or a generated dataset) and report both estimators."""
    csv_path = cfg["data"]["csv"]
    gen = cfg["data"]["generate"]
    design = None
    theta_star = None
    if csv_path is not None:
        data = load_dataset(csv_path)
    else:
        design = _design_from_config(gen)
        theta_star = _theta_star_from_config(gen)
        data = generate(
            gen["n_samples"], gen["dim"], theta_star, design,
            _noise_from_config(gen), _trial_seed(cfg["seed"], 0, 0),
        )
    if cfg["partition"]["permute"]:
        data = permute_dataset(data, _trial_seed(cfg["seed"], 0, 3))
    n = min(cfg["partition"]["blocks"], data.n_samples)
    if n % 2 == 0:
        n -= 1
    p = make_partition(data.n_samples, n)
    obj = _objective_from_config(cfg, data.dim)
    result = mom_minimax_fit(data, p, obj, _solver_from_config(cfg, cfg["seed"]))
    ols = erm_fit(data)
    record = {
        "source": csv_path or "generated",
        "n_samples": data.n_samples,
        "dim": data.dim,
        "blocks": p.n,
        "block_size": p.m,
        "dropped_samples": data.n_samples - p.total,
        "mom": {
            "theta_hat": [float(v) for v in result.theta_hat],
            "converged": result.converged,
            "best_surrogate": result.best_surrogate,
        },
        "ols": {"theta_hat": [float(v) for v in ols.theta]},
    }
    if theta_star is not None:
        record["mom"]["excess_risk"] = excess_risk(
            result.theta_hat, theta_star, design
        )
        record["ols"]["excess_risk"] = excess_risk(ols.theta, theta_star, design)
    return {"config": _embed_config(cfg), "trials": [record], "aggregate": {}}


def run_simulate(cfg: dict) -> dict:
    """Repeat generate -> (corrupt) -> fit -> theorem checks over trials."""
    _require_generated(cfg, "simulate")
    records = _map_trials(_run_single_trial, cfg)
    mom_excess = [rec["mom"]["excess_risk"] for rec in records]
    ols_excess = [rec["ols"]["excess_risk"] for rec in records]
    t1_pass = [rec["theorem1"]["passed"] for rec in records]
    aggregate = {
        "confidence_theorem1": float(np.mean(t1_pass)),
        "mom_excess": _quantiles(mom_excess),
        "ols_excess": _quantiles(ols_excess),
    }
    if all("theorem2" in rec for rec in records) and records[0].get("theorem2"):
        aggregate["confidence_theorem2"] = float(
            np.mean([rec["theorem2"]["passed"] for rec in records])
        )
    return {"config": _embed_config(cfg), "trials": records, "aggregate": aggregate}


def run_corrupt_bench(cfg: dict) -> dict:
    """Clean-OLS vs corrupted-OLS vs MOM-on-corrupted excess risks."""
    _require_generated(cfg, "corrupt-bench")
    records = _map_trials(_run_corrupt_bench_trial, cfg)
    clean = float(np.median([rec["clean_ols_excess"] for rec in records]))
    bad = float(np.median([rec["corrupted_ols_excess"] for rec in records]))
    mom = float(np.median([rec["mom_excess"] for rec in records]))
    aggregate = {
        "median_clean_ols_excess": clean,
        "median_corrupted_ols_excess": bad,
        "median_mom_excess": mom,
        "mom_vs_clean_ols_ratio": mom / clean if clean > 0 else float("inf"),
        "corrupted_vs_clean_ols_ratio": bad / clean if clean > 0 else float("inf"),
    }
    return {"config": _embed_config(cfg), "trials": records, "aggregate": aggregate}


def run_verify(cfg: dict) -> dict:
    """Condition sweeps, the deterministic lemma sweep, and the Delta estimate.

    Synthetic mode only (theta_star must be known).  The harness exit code
    is nonzero iff the deterministic lemma sweep reports violations.
    """
    _require_generated(cfg, "verify")
    gen = cfg["data"]["generate"]
    design = _design_from_config(gen)
    theta_star = _theta_star_from_config(gen)
    f_star = LinearPredictor(theta_star)
    params = _params_from_config(cfg)
    vcfg = cfg["verify"]

    data = generate(
        gen["n_samples"], gen["dim"], theta_star, design,
        _noise_from_config(gen), _trial_seed(cfg["seed"], 0, 0),
    )
    p = make_partition(data.n_samples, cfg["partition"]["blocks"])

    n_probes = max(int(cfg["conditions"]["probes"]), 1)
    rng = np.random.default_rng(_trial_seed(cfg["seed"], 0, 4))
    far_dist = cfg["conditions"]["far_distance"] or params.r
    near_dist = cfg["conditions"]["near_distance"] or params.r / 2.0
    rep1 = check_condition_one(
        data, p, f_star,
        sample_sphere_probes(f_star, design, far_dist, n_probes, rng),
        params.gamma1, params.r, design, cfg["conditions"]["block_fraction"],
    )
    rep2 = check_condition_two(
        data, p, f_star,
        sample_sphere_probes(f_star, design, near_dist, n_probes, rng),
        params.gamma2, params.r, design,
        fraction_threshold=cfg["conditions"]["block_fraction"],
    )

    sweep_table = None
    if vcfg["r_grid"]:
        sweep_table = []
        for r_val in vcfg["r_grid"]:
            probes = sample_sphere_probes(
                f_star, design, float(r_val), n_probes,
                np.random.default_rng(_trial_seed(cfg["seed"], 0, 5)),
            )
            rep = check_condition_one(
                data, p, f_star, probes, params.gamma1, float(r_val), design,
                cfg["conditions"]["block_fraction"],
            )
            sweep_table.append(
                {"r": float(r_val), "mean_fraction": float(np.mean(rep.fractions))}
            )

    lemma = lemma_sweep(int(vcfg["lemma_instances"]), seed=cfg["seed"])
    violations = [
        {
            "probe": v.probe_index,
            "block": v.block_index,
            "conclusion": v.conclusion,
            "lhs": v.lhs,
            "rhs": v.rhs,
        }
        for v in lemma.violations
    ]
    if vcfg["negative_control"]:
        # Harness self-test hook: fabricate a sign-flipped conclusion so the
        # violation path and the nonzero exit are exercised end to end.
        violations.append(
            {
                "probe": -1,
                "block": -1,
                "conclusion": "negative_control",
                "lhs": -1.0,
                "rhs": 1.0,
            }
        )

    reg = _objective_from_config(cfg, gen["dim"]).regularizer
    if reg.kind == "none":
        reg = Regularizer.l1()
    delta = estimate_delta(
        reg, f_star, params.rho, params.r, design,
        budget=int(vcfg["delta_budget"]), seed=cfg["seed"],
    )

    report = {
        "config": _embed_config(cfg),
        "trials": [],
        "aggregate": {
            "condition_one": rep1.to_dict(),
            "condition_two": rep2.to_dict(),
            "r_sweep": sweep_table,
            "lemma": {
                "instances": int(vcfg["lemma_instances"]),
                "checked": dict(sorted(lemma.checked.items())),
                "skipped": dict(sorted(lemma.skipped.items())),
                "violations": violations,
            },
            "delta_estimate": delta.to_dict(),
            "lambda_window": (
                list(lambda_window(params))
                if 6.0 * params.gamma2 <= params.gamma1
                else None
            ),
        },
    }
    return report


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def write_report(path, report: dict, started: float, cfg: dict) -> None:
    full = dict(report)
    full["meta"] = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "runtime_s": time.time() - started,
        "routing": {k: cfg.get(k) for k in _ROUTING_KEYS},
    }
    with open(path, "w") as fh:
        json.dump(full, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trials_csv(path, report: dict) -> None:
    """Flat per-trial rows for external plotting."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["trial", "estimator", "excess_risk", "distance", "passed"])
        for rec in report["trials"]:
            for name in ("mom", "ols"):
                if name not in rec or "excess_risk" not in rec[name]:
                    continue
                exc = rec[name]["excess_risk"]
                passed = rec.get("theorem1", {}).get("passed", "")
                writer.writerow(
                    [
                        rec["trial"],
                        name,
                        repr(float(exc)),
                        repr(float(np.sqrt(exc))),
                        passed if name == "mom" else "",
                    ]
                )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momreg",
        description="Median-of-means minimax regression experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, help_text in (
        ("fit", "fit one dataset (CSV or generated)"),
        ("simulate", "Monte Carlo trials with theorem diagnostics"),
        ("verify", "condition / lemma / delta verifier suite"),
        ("corrupt-bench", "corruption robustness benchmark"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--blocks", type=int, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--csv-out", type=str, default=None, dest="csv_out")
    return parser


_RUNNERS = {
    "fit": run_fit,
    "simulate": run_simulate,
    "verify": run_verify,
    "corrupt-bench": run_corrupt_bench,
}


def _load_config(path: str) -> dict:
    """Read a JSON config document; unreadable or malformed files raise ConfigError."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return raw


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "seed": args.seed,
        "blocks": args.blocks,
        "trials": args.trials,
        "workers": args.workers,
        "out": args.out,
        "csv_out": args.csv_out,
    }
    started = time.time()
    try:
        raw = _load_config(args.config) if args.config else None
        cfg = resolve_config(raw, overrides)
        cfg["mode"] = args.mode
        report = _RUNNERS[args.mode](cfg)
    except MomregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if cfg["out"]:
        write_report(cfg["out"], report, started, cfg)
    if cfg["csv_out"]:
        write_trials_csv(cfg["csv_out"], report)

    agg = report.get("aggregate", {})
    print(json.dumps(agg, indent=2, sort_keys=True))
    if args.mode == "verify" and agg["lemma"]["violations"]:
        print(
            f"error: {len(agg['lemma']['violations'])} lemma violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
