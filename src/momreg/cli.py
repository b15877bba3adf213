"""Command-line experiment harness.

Subcommands: fit, simulate, verify, corrupt-bench.  Configuration is a
single JSON document; CLI flags override config fields and the fully
resolved config is embedded in every report, so any Monte Carlo claim in a
report can be audited and reproduced from the report alone.

Every mode builds its inputs through ``_trial_inputs``: read data.csv (fit
only) or generate the sample, corrupt it, permute it, and split it into
``partition.blocks`` blocks, each step seeded from (seed, trial, stream).
simulate and corrupt-bench run ``_run_single_trial`` on those inputs;
simulate and verify sample their condition probes in
``_condition_reports``.  Invalid configs, unreadable files and runs that
cannot be done (such as more blocks than samples) exit 2 with ``error: ``.

Report files are byte-identical across reruns with the same config and
seed; wall-clock information lives in a separate "meta" field excluded
from that comparison.
"""
from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .datagen import CorruptionSpec, NoiseSpec, corrupt, generate
from .errors import ConfigError, MomregError, ParseError
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
# Largest magnitude of a config number: far beyond any scale a run uses, and
# small enough that the squares and products a run takes of it stay finite.
_MAX_MAGNITUDE = 1e100


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
    "conditions.far_distance": (("number", "null"), _POSITIVE),
    "conditions.near_distance": (("number", "null"), _POSITIVE),
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
    return abs(v) <= _MAX_MAGNITUDE  # False for nan and inf; ints compare exactly


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


# Type name -> (description, test).
_TYPES = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "null": ("null", lambda v: v is None),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "number": ("a number of magnitude at most 1e100", _is_number),
    "numbers": ("a list of numbers of magnitude at most 1e100", _is_numbers),
    "ints": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "matrix": (
        "a list of equal-length lists of numbers of magnitude at most 1e100",
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
    if c is None or (c.get("count", 0) == 0 and c.get("indices") is None):
        return None
    return CorruptionSpec(
        count=int(c["count"]),
        mode=c.get("mode", "huge_response"),
        magnitude=float(c.get("magnitude", 1e6)),
        indices=None if c.get("indices") is None else tuple(c["indices"]),
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
# trial pipeline (module-level so worker processes can pickle it)
# ---------------------------------------------------------------------------

def _trial_inputs(cfg: dict, trial: int):
    """The one path from config to data: read data.csv or generate the sample
    (seed stream 0), corrupt it (stream 1), permute it (stream 3) and split it
    into partition.blocks blocks.

    Returns (design, theta_star, clean, data, corrupted_indices, partition):
    design and theta_star are None for a CSV, clean is the sample before
    corruption and permutation, and corrupted_indices is None when nothing
    was corrupted.
    """
    master = cfg["seed"]
    csv_path = cfg["data"]["csv"]
    design = theta_star = None
    if csv_path is not None:
        try:
            clean = load_dataset(csv_path)
        except OSError as exc:
            raise ConfigError(f"cannot read data.csv {csv_path!r}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"data.csv {csv_path!r} is not UTF-8 text: {exc}") from exc
    else:
        gen = cfg["data"]["generate"]
        design = _design_from_config(gen)
        theta_star = _theta_star_from_config(gen)
        clean = generate(
            gen["n_samples"], gen["dim"], theta_star, design,
            _noise_from_config(gen), _trial_seed(master, trial, 0),
        )
    data, corrupted_indices = clean, None
    spec = _corruption_from_config(cfg)
    if spec is not None:
        data, corrupted_indices = corrupt(clean, spec, _trial_seed(master, trial, 1))
    if cfg["partition"]["permute"]:
        data = permute_dataset(data, _trial_seed(master, trial, 3))
    p = make_partition(data.n_samples, cfg["partition"]["blocks"])
    return design, theta_star, clean, data, corrupted_indices, p


def _condition_reports(cfg: dict, trial: int, data, p, theta_star, design, count: int):
    """Sample count far and count near probes (seed stream 4) at the config's
    distances, or r and r / 2 where they are null, and run both condition
    checks on them."""
    params = _params_from_config(cfg)
    c = cfg["conditions"]
    f_star = LinearPredictor(theta_star)
    rng = np.random.default_rng(_trial_seed(cfg["seed"], trial, 4))
    far_dist = params.r if c["far_distance"] is None else c["far_distance"]
    near_dist = params.r / 2.0 if c["near_distance"] is None else c["near_distance"]
    far = sample_sphere_probes(f_star, design, far_dist, count, rng)
    near = sample_sphere_probes(f_star, design, near_dist, count, rng)
    return (
        check_condition_one(
            data, p, f_star, far, params.gamma1, params.r, design, c["block_fraction"]
        ),
        check_condition_two(
            data, p, f_star, near, params.gamma2, params.r, design,
            fraction_threshold=c["block_fraction"],
        ),
    )


def _run_single_trial(payload: tuple[str, int]) -> dict:
    cfg = json.loads(payload[0])
    trial = payload[1]
    design, theta_star, clean, data, corrupted_indices, p = _trial_inputs(cfg, trial)
    obj = _objective_from_config(cfg, data.dim)
    solver_cfg = _solver_from_config(cfg, _solver_seed(cfg["seed"], trial))
    result = mom_minimax_fit(data, p, obj, solver_cfg)
    ols = erm_fit(data)

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
    if corrupted_indices is not None:
        record["clean_ols"] = {
            "excess_risk": excess_risk(erm_fit(clean).theta, theta_star, design)
        }

    reports = None
    n_probes = int(cfg["conditions"]["probes"])
    if n_probes > 0:
        reports = _condition_reports(cfg, trial, data, p, theta_star, design, n_probes)
        record["conditions"] = {"one": reports[0].to_dict(), "two": reports[1].to_dict()}

    record["theorem1"] = theorem1_check(
        result.theta_hat, theta_star, design, params, reports
    ).to_dict()
    if obj.lam > 0.0:
        record["theorem2"] = theorem2_check(
            result.theta_hat, theta_star, design, params, obj.regularizer
        ).to_dict()
    return record


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
    design, theta_star, _, data, corrupted_indices, p = _trial_inputs(cfg, 0)
    obj = _objective_from_config(cfg, data.dim)
    result = mom_minimax_fit(data, p, obj, _solver_from_config(cfg, cfg["seed"]))
    ols = erm_fit(data)
    record = {
        "source": cfg["data"]["csv"] or "generated",
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
        "corrupted_indices": corrupted_indices,
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
    """Clean-OLS vs corrupted-OLS vs MOM-on-corrupted excess risks, over the
    simulate trials; a null corruption runs as 10 rows at 1e6."""
    _require_generated(cfg, "corrupt-bench")
    if cfg["corruption"] is None:
        cfg = {**cfg, "corruption": {"count": 10}}
    if cfg["corruption"].get("count", 0) < 1:
        raise ConfigError("corrupt-bench needs corruption.count >= 1")
    records = _map_trials(_run_single_trial, cfg)
    clean, bad, mom = (
        float(np.median([rec[key]["excess_risk"] for rec in records]))
        for key in ("clean_ols", "ols", "mom")
    )
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
    design, theta_star, _, data, _, p = _trial_inputs(cfg, 0)
    f_star = LinearPredictor(theta_star)
    params = _params_from_config(cfg)
    vcfg = cfg["verify"]
    n_probes = max(int(cfg["conditions"]["probes"]), 1)
    rep1, rep2 = _condition_reports(cfg, 0, data, p, theta_star, design, n_probes)

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

    reg = _objective_from_config(cfg, data.dim).regularizer
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

def _open_for_write(path, **kwargs):
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def write_report(path, report: dict, started: float, cfg: dict) -> None:
    full = dict(report)
    full["meta"] = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "runtime_s": time.time() - started,
        "routing": {k: cfg.get(k) for k in _ROUTING_KEYS},
    }
    with _open_for_write(path) as fh:
        json.dump(full, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trials_csv(path, report: dict) -> None:
    """Flat per-trial rows for external plotting."""
    import csv as _csv

    with _open_for_write(path, newline="") as fh:
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
        if cfg["out"]:
            write_report(cfg["out"], report, started, cfg)
        if cfg["csv_out"]:
            write_trials_csv(cfg["csv_out"], report)
    except MomregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
