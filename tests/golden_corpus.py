"""Golden report corpus: the committed bytes that "same behaviour" means.

Each case runs one ``momreg`` mode in process, through ``cli.main``, on a
small d=3 config (one verify case runs at the benchmark's verify scale,
where the lemma sweep spans several chunks and the condition checks
several residual slices), and records its exit code, its stderr, its trials CSV and
its report without the wall-clock ``meta`` field.  One more entry records
the theta_hat of a fixed subset of the frozen acceptance trials (criteria
3, 4 and 10) with the sha256 of their bytes, and another the adversary
ascents of a few ``phi_hat``/``phi_lambda_hat`` certificates.
``tests/test_golden.py`` compares a fresh run against ``tests/golden/``.

Regenerate the corpus with::

    PYTHONPATH=src python tests/golden_corpus.py

A change that regenerates it says in CHANGES.md which entries moved and why.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from momreg import (
    ConditionParams,
    CorruptionSpec,
    Dataset,
    DesignSpec,
    GridSpec,
    LinearPredictor,
    NoiseSpec,
    ObjectiveConfig,
    Regularizer,
    SolverConfig,
    corrupt,
    generate,
    lambda_window,
    make_partition,
    mom_minimax_fit,
    oracle_grid_fit,
    phi_hat,
    phi_lambda_hat,
    save_dataset,
)
from momreg import cli, objective

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ENVIRONMENT_FILE = "environment.json"
FROZEN_FILE = "frozen_theta_hat.json"
CERTIFICATE_FILE = "certificates.json"
CSV_FILE = "fit_data.csv"


def _config(**sections) -> dict:
    """A small d=3 config: 400 samples in 21 blocks, 3 trials, 100 solver
    iterations, 10 condition probes and 10 lemma instances, with sections
    replaced by the given ones."""
    cfg = {
        "data": {"generate": {"n_samples": 400, "dim": 3, "theta_star": [1.0, -0.5, 2.0]}},
        "partition": {"blocks": 21},
        "solver": {"iterations": 100},
        "conditions": {"gamma1": 0.5, "gamma2": 0.05, "r": 2.0, "rho": 1.0, "probes": 10},
        "verify": {"lemma_instances": 10, "delta_budget": 50},
        "trials": 3,
        "seed": 1,
    }
    cfg.update(sections)
    return cfg


_L1_CONDITIONS = {"gamma1": 0.8, "gamma2": 0.1, "r": 0.5, "rho": 0.5, "probes": 10}

CONFIGS = {
    "plain": _config(verify={"lemma_instances": 10, "delta_budget": 50, "r_grid": [1.0, 2.0]}),
    "l1": _config(
        data={"generate": {"n_samples": 400, "dim": 3,
                           "theta_star": {"sparse": {"support": 1, "value": 1.5}}}},
        objective={"regularizer": "l1", "lambda": 0.17},
        conditions=_L1_CONDITIONS,
    ),
    "slope": _config(
        objective={"regularizer": "slope", "lambda": 0.17, "slope_weights": [1.5, 1.2, 1.0]},
        conditions=_L1_CONDITIONS,
    ),
    "leverage_permute": _config(
        partition={"blocks": 21, "permute": True},
        corruption={"count": 5, "mode": "adversarial_leverage", "magnitude": 100.0},
    ),
    "student_t": _config(
        data={"generate": {"n_samples": 400, "dim": 3, "theta_star": [1.0, -0.5, 2.0],
                           "noise": {"kind": "student_t", "scale": 1.0, "dof": 3.0}}},
        corruption={"count": 4, "mode": "sign_flip"},
    ),
    "indices": _config(corruption={"count": 3, "indices": [0, 7, 100]}),
    "negative_control": _config(
        verify={"lemma_instances": 10, "delta_budget": 50, "negative_control": True}
    ),
    "csv": _config(data={"csv": CSV_FILE}),
    # perfbench's verify_suite config: 3 lemma-sweep chunks, 13 probes per
    # residual slice of the condition checks
    "verify_scale": _config(
        data={"generate": {"n_samples": 5000, "dim": 3, "theta_star": [1.0, -0.5, 2.0]}},
        partition={"blocks": 101},
        conditions={"gamma1": 0.5, "gamma2": 0.2, "r": 2.0, "rho": 1.0, "probes": 200},
        verify={"lemma_instances": 200, "delta_budget": 200},
    ),
}


@dataclass(frozen=True)
class Case:
    name: str
    config: str
    mode: str
    flags: tuple[str, ...] = field(default=())
    csv_out: bool = False  # fit cases write a trials CSV only when set; other modes always


CASES = [
    Case("plain_fit", "plain", "fit"),
    Case("plain_fit_csv_out", "plain", "fit", csv_out=True),
    Case("plain_simulate", "plain", "simulate"),
    Case("plain_corrupt_bench", "plain", "corrupt-bench"),
    Case("plain_verify", "plain", "verify"),
    Case("l1_fit", "l1", "fit"),
    Case("l1_simulate", "l1", "simulate"),
    Case("l1_verify", "l1", "verify"),
    Case("slope_simulate", "slope", "simulate"),
    Case("slope_verify", "slope", "verify"),
    Case("leverage_permute_fit", "leverage_permute", "fit"),
    Case("leverage_permute_simulate", "leverage_permute", "simulate"),
    Case("leverage_permute_corrupt_bench", "leverage_permute", "corrupt-bench"),
    Case("student_t_simulate", "student_t", "simulate"),
    Case("student_t_corrupt_bench", "student_t", "corrupt-bench"),
    Case("indices_fit", "indices", "fit"),
    Case("indices_corrupt_bench_even_blocks", "indices", "corrupt-bench", ("--blocks", "20")),
    Case("negative_control_verify", "negative_control", "verify"),
    Case("verify_scale_verify", "verify_scale", "verify"),
    Case("csv_fit", "csv", "fit"),
    Case("csv_fit_too_many_blocks", "csv", "fit", ("--blocks", "1001")),
]


def _dump(obj) -> str:
    """The corpus text of a JSON object: as ``write_report`` dumps a report."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def environment() -> dict:
    """The numpy build a corpus was made with: results are byte-identical
    only under the same numpy, BLAS and machine architecture."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
    }


def run_case(case: Case, workdir: Path) -> str:
    """The corpus text of one case: exit code, stderr, trials CSV and the
    report without ``meta`` (null when the run wrote none).

    The run's working directory is the corpus directory, so ``data.csv``
    names the committed CSV by a relative path, as reports embed it.
    """
    cfg_path = workdir / f"{case.name}.config.json"
    out = workdir / f"{case.name}.report.json"
    csv_out = workdir / f"{case.name}.trials.csv"
    cfg_path.write_text(json.dumps(CONFIGS[case.config]))
    argv = [case.mode, "--config", str(cfg_path), "--out", str(out)]
    if case.mode != "fit" or case.csv_out:
        argv += ["--csv-out", str(csv_out)]
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, *case.flags])
    finally:
        os.chdir(cwd)
    report = None
    if out.exists():
        report = json.loads(out.read_text())
        del report["meta"]
    return _dump({
        "config": case.config,
        "mode": case.mode,
        "flags": list(case.flags),
        "exit_code": code,
        "stderr": stderr.getvalue(),
        "trials_csv": csv_out.read_text() if csv_out.exists() else None,
        "report": report,
    })


_CRITERION3_GRID = GridSpec(axes=((-3.0, 3.0, 0.01),))


def _criterion3_instance(seed: int):
    """The frozen criterion-3 instance of a seed: d=1, N=300, n=15."""
    rng = np.random.default_rng(1000 + seed)
    X = rng.standard_normal((300, 1))
    theta_star = np.array([rng.uniform(-1.5, 1.5)])
    return Dataset(X, X @ theta_star + rng.standard_normal(300)), make_partition(300, 15)


def frozen_theta_hats() -> dict:
    """theta_hat of a fixed subset of the frozen acceptance trials, built
    as ``tests/test_acceptance.py`` builds them: criterion 3 (seeds 0-2, the
    fit and the grid oracle), criterion 4 (seeds 0-2) and criterion 10 (seed
    0, clean and corrupted)."""
    out = {"criterion_03": [], "criterion_04": [], "criterion_10": []}
    for seed in range(3):
        data, p = _criterion3_instance(seed)
        out["criterion_03"].append(
            mom_minimax_fit(data, p, ObjectiveConfig(), SolverConfig(seed=seed)).theta_hat
        )
        out["criterion_03"].append(
            oracle_grid_fit(data, p, ObjectiveConfig(), _CRITERION3_GRID, _CRITERION3_GRID).theta_hat
        )

    huge = CorruptionSpec(count=10, mode="huge_response", magnitude=1e6)
    p = make_partition(1000, 51)
    for seed in range(3):
        data = generate(1000, 5, np.ones(5), DesignSpec.identity(5), NoiseSpec(), seed)
        bad, _ = corrupt(data, huge, seed + 9999)
        out["criterion_04"].append(
            mom_minimax_fit(bad, p, ObjectiveConfig(), SolverConfig(seed=seed)).theta_hat
        )

    theta_star = np.zeros(50)
    theta_star[:3] = 1.0
    lo, hi = lambda_window(ConditionParams(gamma1=0.8, gamma2=0.1, r=0.25, rho=0.21875))
    obj = ObjectiveConfig((lo + hi) / 2.0, Regularizer.l1())
    data = generate(1000, 50, theta_star, DesignSpec.identity(50), NoiseSpec(), 0)
    bad, _ = corrupt(data, huge, 7777)
    for sample in (data, bad):
        out["criterion_10"].append(mom_minimax_fit(sample, p, obj, SolverConfig(seed=0)).theta_hat)

    digest = _sha256(theta for key in sorted(out) for theta in out[key])
    record = {key: [theta.tolist() for theta in thetas] for key, thetas in out.items()}
    return {**record, "sha256": digest}


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _certificate(run) -> dict:
    """The record of one certificate: its value and witness, and per start
    of its adversary ascent the best value, its g and the number of
    iterates evaluated, plus the sha256 of the explored iterates' bytes.

    The ascent's per-start outputs are read by wrapping
    ``objective._ascend_adversary`` for the run.  JSON keeps every float's
    bits, the sign of a zero included.
    """
    ascents = []
    ascend = objective._ascend_adversary

    def recorded(*args):
        ascents.append(ascend(*args))
        return ascents[-1]

    objective._ascend_adversary = recorded
    try:
        cert = run()
    finally:
        objective._ascend_adversary = ascend
    (values, gs, (_, counts)), = ascents
    return {
        "value": cert.value,
        "witness": cert.witness.theta.tolist(),
        "start_values": values.tolist(),
        "start_witnesses": gs.tolist(),
        "counts": counts.tolist(),
        "explored_sha256": _sha256(cert.explored),
    }


def certificates() -> dict:
    """Adversary-ascent certificates with ``collect_explored`` set: the
    ``phi_hat`` of the grid argmin of the frozen criterion-3 instances of
    seeds 0-2 (data seeds 1000-1002), clean and with 3 rows at 1e6, and one
    l1 ``phi_lambda_hat`` at d=3 with 5 rows at 1e6."""
    out = {"criterion_03": []}
    huge3 = CorruptionSpec(count=3, mode="huge_response", magnitude=1e6)
    for seed in range(3):
        clean, p = _criterion3_instance(seed)
        for data in (clean, corrupt(clean, huge3, seed + 9999)[0]):
            obj = ObjectiveConfig()
            f = oracle_grid_fit(data, p, obj, _CRITERION3_GRID, _CRITERION3_GRID).predictor
            out["criterion_03"].append(
                _certificate(lambda: phi_hat(f, data, p, seed=seed, collect_explored=True))
            )

    data = generate(400, 3, [1.5, 0.0, 0.0], DesignSpec.identity(3), NoiseSpec(), 5)
    bad, _ = corrupt(data, CorruptionSpec(count=5), 6)
    f = LinearPredictor(np.array([1.2, 0.1, -0.05]))
    obj = ObjectiveConfig(0.17, Regularizer.l1())
    out["l1_d3"] = _certificate(
        lambda: phi_lambda_hat(f, bad, make_partition(400, 21), obj, seed=7, collect_explored=True)
    )
    return out


def write_csv_input() -> None:
    """The dataset the ``csv`` config fits: 301 rows, d=3, 5 rows at 1e6."""
    data = generate(301, 3, [0.5, 1.0, -1.0], DesignSpec.identity(3), NoiseSpec(), 42)
    bad, _ = corrupt(data, CorruptionSpec(count=5), 43)
    save_dataset(GOLDEN_DIR / CSV_FILE, bad)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    write_csv_input()
    (GOLDEN_DIR / ENVIRONMENT_FILE).write_text(_dump(environment()))
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN_DIR / f"{case.name}.json").write_text(run_case(case, Path(tmp)))
    (GOLDEN_DIR / FROZEN_FILE).write_text(_dump(frozen_theta_hats()))
    (GOLDEN_DIR / CERTIFICATE_FILE).write_text(_dump(certificates()))


if __name__ == "__main__":
    regenerate()
    print(
        f"wrote {len(CASES)} cases, {FROZEN_FILE} and {CERTIFICATE_FILE} to {GOLDEN_DIR}",
        file=sys.stderr,
    )
