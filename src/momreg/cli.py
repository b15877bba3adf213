"""Command-line experiment harness.

Subcommands: fit, simulate, verify, corrupt-bench.  Configuration is a
single JSON document; CLI flags override config fields and the fully
resolved config is embedded in every report, so any Monte Carlo claim in a
report can be audited and reproduced from the report alone.

One table, ``_CONFIG``, declares every config key once: its default, its
types and its range.  A document is merged over those defaults object by
object (a ``corruption`` object over the ``corruption.*`` defaults, so a
report embeds every corruption field a run used), an unknown key exits 2
naming its dotted path, and every merged value is checked against its row.
The ``solver``, ``data.generate.noise`` and ``corruption`` objects are the
keyword arguments of ``SolverConfig``, ``NoiseSpec`` and ``CorruptionSpec``,
whose field defaults their rows read, and are handed to them as they are.
One more table, ``_FLAGS``, declares each CLI flag that overrides a config
key once, for the parser and for the overrides alike.

Every mode builds its inputs through ``_trial_inputs``: read data.csv (fit
only) or generate the sample, corrupt it, permute it, and split it into
``partition.blocks`` blocks, each step seeded from (seed, trial, stream).
simulate and corrupt-bench run ``_run_single_trial`` on those inputs;
``_run_single_trial`` and fit build their "mom" and "ols" records in
``_fit_records``; simulate and verify sample their condition probes in
``_condition_reports``.  Invalid configs, unreadable files and runs that
cannot be done (such as more blocks than samples) exit 2 with ``error: ``;
report targets that cannot be written do so before the first trial runs.

Report files are byte-identical across reruns with the same config and
seed; wall-clock information lives in a separate "meta" field excluded
from that comparison.
"""
from __future__ import annotations

import argparse
import copy
import errno
import functools
import json
import os
import sys
import time

import numpy as np

from .datagen import CORRUPTION_MODES, NOISE_KINDS, CorruptionSpec, NoiseSpec, corrupt, generate
from .errors import ConfigError, EmptyLambdaWindow, MomregError, ParseError
from .model import (
    MAX_MAGNITUDE,
    Dataset,
    DesignSpec,
    LinearPredictor,
    load_dataset,
    make_partition,
    row_permutation,
)
from .objective import ConditionParams, ObjectiveConfig, Regularizer, lambda_window
from .solver import SolverConfig, erm_fit, mom_minimax_fit
from .verify import (
    LemmaViolation,
    check_condition_one,
    check_condition_two,
    estimate_delta,
    excess_risk,
    lemma_sweep,
    sample_sphere_probes,
    theorem1_check,
    theorem2_check,
)

# Largest count or row index a config may ask for (samples, dimensions,
# blocks, trials, iterations, probes, instances, corrupted rows): far beyond
# any run that fits in memory, so a larger value is a typo, not a request.
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
_OBJECT = {}  # the default of an object: built from the rows under it

# Every config key by dotted path: its default, the types it may take and
# the range a number (or each entry of a list) or a string must lie in.
# A parent comes before the keys under it.  An object given in a config
# document is merged over the defaults of the keys under it; so is a
# corruption object, although corruption itself defaults to null.
_CONFIG = {
    "mode": ("simulate", ("string",), None),  # set by the subcommand
    "data": (_OBJECT, ("object",), None),
    "data.csv": (None, ("string", "null"), None),
    "data.generate": (_OBJECT, ("object",), None),
    "data.generate.n_samples": (1000, ("int",), _POSITIVE_COUNT),
    "data.generate.dim": (5, ("int",), _POSITIVE_COUNT),
    "data.generate.theta_star": (_OBJECT, ("object", "numbers"), None),
    "data.generate.theta_star.sparse": (_OBJECT, ("object",), None),
    "data.generate.theta_star.sparse.support": (5, ("int",), _COUNT),
    "data.generate.theta_star.sparse.value": (1.0, ("number",), None),
    "data.generate.covariance": ("identity", ("string", "null", "matrix"), _one_of("identity")),
    "data.generate.noise": (_OBJECT, ("object",), None),
    "data.generate.noise.kind": (NoiseSpec.kind, ("string",), _one_of(*NOISE_KINDS)),
    "data.generate.noise.scale": (NoiseSpec.scale, ("number",), _POSITIVE),
    "data.generate.noise.dof": (NoiseSpec.dof, ("number", "null"), None),
    "partition": (_OBJECT, ("object",), None),
    "partition.blocks": (51, ("int",), _POSITIVE_COUNT),
    "partition.permute": (False, ("bool",), None),
    "objective": (_OBJECT, ("object",), None),
    "objective.lambda": (0.0, ("number",), _at_least(0)),
    "objective.regularizer": ("none", ("string",), _one_of("none", "l1", "slope")),
    "objective.slope_weights": (None, ("numbers", "null"), None),
    "solver": (_OBJECT, ("object",), None),
    "solver.step_f": (SolverConfig.step_f, ("number", "null"), _POSITIVE),
    "solver.step_g": (SolverConfig.step_g, ("number", "null"), _POSITIVE),
    "solver.iterations": (SolverConfig.iterations, ("int",), _POSITIVE_COUNT),
    "solver.restarts": (SolverConfig.restarts, ("int",), _POSITIVE_COUNT),
    "solver.tolerance": (SolverConfig.tolerance, ("number",), _POSITIVE),
    "solver.decay": (SolverConfig.decay, ("bool",), None),
    "conditions": (_OBJECT, ("object",), None),
    "conditions.gamma1": (0.5, ("number",), _POSITIVE),
    "conditions.gamma2": (0.2, ("number",), _POSITIVE),
    "conditions.r": (2.0, ("number",), _POSITIVE),
    "conditions.rho": (ConditionParams.rho, ("number",), _POSITIVE),
    "conditions.block_fraction": (0.9, ("number",), _between(0, 1)),
    "conditions.probes": (0, ("int",), _COUNT),
    "conditions.far_distance": (None, ("number", "null"), _POSITIVE),
    "conditions.near_distance": (None, ("number", "null"), _POSITIVE),
    "corruption": (None, ("object", "null"), None),
    "corruption.count": (0, ("int",), _COUNT),
    "corruption.mode": (CorruptionSpec.mode, ("string",), _one_of(*CORRUPTION_MODES)),
    "corruption.magnitude": (CorruptionSpec.magnitude, ("number",), _POSITIVE),
    "corruption.indices": (CorruptionSpec.indices, ("ints", "null"), _COUNT),
    "verify": (_OBJECT, ("object",), None),
    "verify.lemma_instances": (200, ("int",), _COUNT),
    "verify.delta_budget": (200, ("int",), _COUNT),
    "verify.r_grid": (None, ("numbers", "null"), _POSITIVE),
    "verify.negative_control": (False, ("bool",), None),
    "trials": (1, ("int",), _POSITIVE_COUNT),
    "seed": (0, ("int",), _at_least(0)),
    "workers": (1, ("int",), _between(1, _MAX_WORKERS)),
    "out": (None, ("string", "null"), None),
    "csv_out": (None, ("string", "null"), None),
}

# The CLI flags, each overriding the config key of its name (blocks:
# partition.blocks), and the type argparse reads it as.
_FLAGS = {"seed": int, "blocks": int, "trials": int, "workers": int, "out": str, "csv_out": str}


def _defaults(path: str) -> dict:
    """The default object at a dotted path ("" for the whole config)."""
    out = {}
    for key, (default, _, _) in _CONFIG.items():
        parent, _, leaf = key.rpartition(".")
        if parent == path:
            out[leaf] = _defaults(key) if default is _OBJECT else default
    return out


def _merge(path: str, doc: dict) -> dict:
    """doc merged over the defaults of the object at a dotted path."""
    out = _defaults(path)
    for leaf, val in doc.items():
        key = f"{path}.{leaf}" if path else leaf
        if leaf not in out:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(val, dict) and "object" in _CONFIG[key][1]:
            out[leaf] = _merge(key, val)
        else:
            out[leaf] = copy.deepcopy(val)
    return out


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    return abs(v) <= MAX_MAGNITUDE  # False for nan and inf; ints compare exactly


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
        # each entry of a list; a matrix has no range
        return "matrix" in kinds or all(map(allowed[1], value))
    return allowed[1](value)


def _check_config(cfg: dict) -> None:
    """Raise ConfigError for the first value of the wrong type or range;
    keys are checked only where their parent is an object."""
    for key, (_, kinds, allowed) in _CONFIG.items():
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            node = node[part]
            if not isinstance(node, dict):
                break
        else:
            value = node[leaf]
            if not any(_TYPES[kind][1](value) for kind in kinds):
                expected = " or ".join(_TYPES[kind][0] for kind in kinds)
                raise ConfigError(f"{key} must be {expected}, got {value!r}")
            if not _in_range(value, kinds, allowed):
                raise ConfigError(f"{key} must be {allowed[0]}, got {value!r}")


def resolve_config(raw: dict | None, overrides: dict | None = None) -> dict:
    """Merge a config document and CLI overrides over the defaults of
    _CONFIG and check every value against it; bad values raise ConfigError."""
    cfg = _merge("", raw or {})
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key == "blocks":
            if isinstance(cfg["partition"], dict):  # else _check_config rejects it
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
            raise ConfigError(
                f"data.generate.theta_star.sparse.support {support} exceeds data.generate.dim {d}"
            )
        theta = np.zeros(d)
        theta[:support] = float(sparse["value"])
        return theta
    theta = np.asarray(spec, dtype=np.float64)
    if theta.shape != (d,):
        raise ConfigError(
            f"data.generate.theta_star has {theta.size} entries, data.generate.dim is {d}"
        )
    return theta


def _objective_from_config(cfg: dict, dim: int) -> ObjectiveConfig:
    obj = cfg["objective"]
    kind = obj["regularizer"]
    lam = float(obj["lambda"])
    weights = obj["slope_weights"]
    if kind == "none" and lam != 0.0:
        raise ConfigError(f"objective.lambda must be 0 with regularizer none, got {lam!r}")
    if kind != "slope" and weights is not None:
        raise ConfigError(
            f"objective.slope_weights must be null with regularizer {kind}, got {weights!r}"
        )
    if kind == "none":
        return ObjectiveConfig()
    if kind == "l1":
        return ObjectiveConfig(lam, Regularizer.l1())
    return ObjectiveConfig(lam, Regularizer.slope(weights, d=dim))


def _params_from_config(cfg: dict) -> ConditionParams:
    c = cfg["conditions"]
    return ConditionParams(
        gamma1=float(c["gamma1"]),
        gamma2=float(c["gamma2"]),
        r=float(c["r"]),
        rho=float(c["rho"]),
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
    corruption and permutation, and corrupted_indices, sorted rows of data
    (after the permutation), is None when nothing was corrupted.
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
            NoiseSpec(**gen["noise"]), _trial_seed(master, trial, 0),
        )
    data, corrupted_indices = clean, None
    c = cfg["corruption"]
    if c is not None and (c["count"] > 0 or c["indices"] is not None):
        data, corrupted_indices = corrupt(
            clean, CorruptionSpec(**c), _trial_seed(master, trial, 1)
        )
    if cfg["partition"]["permute"]:
        perm = row_permutation(data.n_samples, _trial_seed(master, trial, 3))
        data = Dataset(data.features[perm], data.responses[perm])
        if corrupted_indices is not None:
            # Row i of the fitted data is row perm[i] of the sample.
            corrupted_indices = np.flatnonzero(np.isin(perm, corrupted_indices)).tolist()
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


def _fit_records(cfg: dict, seed: int, data, p, theta_star, design):
    """Fit the MOM estimator, with solver seed ``seed``, and least squares
    on data.

    Returns the objective, the MOM result and the report's "mom" and "ols"
    records; the records carry excess risks when theta_star is known.
    """
    obj = _objective_from_config(cfg, data.dim)
    result = mom_minimax_fit(data, p, obj, SolverConfig(**cfg["solver"], seed=seed))
    ols = erm_fit(data)
    records = {
        "mom": {
            "theta_hat": result.theta_hat.tolist(),
            "converged": result.converged,
            "best_surrogate": result.best_surrogate,
        },
        "ols": {"theta_hat": ols.theta.tolist()},
    }
    if theta_star is not None:
        records["mom"]["excess_risk"] = excess_risk(result.theta_hat, theta_star, design)
        records["ols"]["excess_risk"] = excess_risk(ols.theta, theta_star, design)
    return obj, result, records


def _run_single_trial(payload: tuple[str, int]) -> dict:
    cfg = json.loads(payload[0])
    trial = payload[1]
    design, theta_star, clean, data, corrupted_indices, p = _trial_inputs(cfg, trial)
    obj, result, fits = _fit_records(
        cfg, _solver_seed(cfg["seed"], trial), data, p, theta_star, design
    )
    params = _params_from_config(cfg)
    record: dict = {"trial": trial, **fits, "corrupted_indices": corrupted_indices}
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
    text = json.dumps(cfg, sort_keys=True)
    payloads = [(text, t) for t in range(cfg["trials"])]
    if cfg["workers"] > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms to import

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
    _, _, fits = _fit_records(cfg, cfg["seed"], data, p, theta_star, design)
    record = {
        "source": cfg["data"]["csv"] or "generated",
        "n_samples": data.n_samples,
        "dim": data.dim,
        "blocks": p.n,
        "block_size": p.m,
        "dropped_samples": data.n_samples - p.total,
        **fits,
        "corrupted_indices": corrupted_indices,
    }
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
    simulate trials.  A null corruption runs as the corruption defaults with
    count 10 (10 rows at 1e6), and the report embeds that full object."""
    _require_generated(cfg, "corrupt-bench")
    if cfg["corruption"] is None:
        cfg = {**cfg, "corruption": {**_defaults("corruption"), "count": 10}}
    if cfg["corruption"]["count"] < 1:
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
    reg = _objective_from_config(cfg, data.dim).regularizer
    f_star = LinearPredictor(theta_star)
    params = _params_from_config(cfg)
    vcfg = cfg["verify"]
    n_probes = int(cfg["conditions"]["probes"])
    rep1 = rep2 = sweep_table = None
    if n_probes > 0:  # as in simulate, 0 probes means no condition checks
        reports = _condition_reports(cfg, 0, data, p, theta_star, design, n_probes)
        rep1, rep2 = (rep.to_dict() for rep in reports)
    if n_probes > 0 and vcfg["r_grid"]:
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
    if vcfg["negative_control"]:
        # Harness self-test hook: fabricate a sign-flipped conclusion so the
        # violation path and the nonzero exit are exercised end to end.
        lemma.violations.append(
            LemmaViolation(-1, -1, "negative_control", -1.0, 1.0, instance=-1)
        )

    if reg.kind == "none":
        reg = Regularizer.l1()
    delta = estimate_delta(
        reg, f_star, params.rho, params.r, design,
        budget=int(vcfg["delta_budget"]), seed=_trial_seed(cfg["seed"], 0, 6),
    )
    try:
        window = list(lambda_window(params))
    except EmptyLambdaWindow:
        window = None

    return {
        "config": _embed_config(cfg),
        "trials": [],
        "aggregate": {
            "condition_one": rep1,
            "condition_two": rep2,
            "r_sweep": sweep_table,
            "lemma": {
                "instances": int(vcfg["lemma_instances"]),
                "checked": dict(sorted(lemma.checked.items())),
                "skipped": dict(sorted(lemma.skipped.items())),
                "violations": [
                    {
                        "instance": v.instance,
                        "probe": v.probe_index,
                        "block": v.block_index,
                        "conclusion": v.conclusion,
                        "lhs": v.lhs,
                        "rhs": v.rhs,
                    }
                    for v in lemma.violations
                ],
            },
            "delta_estimate": delta.to_dict(),
            "lambda_window": window,
        },
    }


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

def _open_for_write(path, **kwargs):
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def _check_writable(path) -> None:
    """Raise the ConfigError _open_for_write would raise for a missing or
    read-only directory, a directory target or a read-only file, without
    creating the file: a run checks its outputs before its first trial."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {path!r}: {os.strerror(code)}")


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
    """Flat per-trial rows for external plotting, numbered by their
    position in the report's trials (a fit's one record is trial 0)."""
    import csv as _csv

    with _open_for_write(path, newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["trial", "estimator", "excess_risk", "distance", "passed"])
        for trial, rec in enumerate(report["trials"]):
            for name in ("mom", "ols"):
                if name not in rec or "excess_risk" not in rec[name]:
                    continue
                exc = rec[name]["excess_risk"]
                passed = rec.get("theorem1", {}).get("passed", "")
                writer.writerow(
                    [
                        trial,
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
        for key, kind in _FLAGS.items():
            sp.add_argument("--" + key.replace("_", "-"), type=kind, default=None, dest=key)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import, and kept for the process: a build
    # costs about 20 parses, and parse_args leaves the parser as it was.
    return build_parser()


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
    args = _parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _FLAGS}
    started = time.time()
    try:
        raw = _load_config(args.config) if args.config else None
        cfg = resolve_config(raw, overrides)
        cfg["mode"] = args.mode
        for path in (cfg["out"], cfg["csv_out"]):
            if path:
                _check_writable(path)
        report = _RUNNERS[args.mode](cfg)
        if cfg["out"]:
            write_report(cfg["out"], report, started, cfg)
        if cfg["csv_out"]:
            write_trials_csv(cfg["csv_out"], report)
    except MomregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size and shape of the failed allocation.
        reason = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{reason}", file=sys.stderr)
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
