"""Golden report corpus: the committed bytes that "same behaviour" means.

Each case runs one ``momreg`` mode in process, through ``cli.main``, on a
small d=3 config (one verify case runs at the benchmark's verify scale,
where the lemma sweep spans several chunks and the condition checks
several residual slices), and records its exit code,
its stderr, its trials CSV and its report without the wall-clock ``meta``
field.  One more entry records
the theta_hat of a fixed subset of the frozen acceptance trials (criteria
3, 4 and 10) with the sha256 of their bytes, and another the adversary
ascents of a few ``phi_hat``/``phi_lambda_hat`` certificates.
``tests/test_golden.py`` compares a fresh run against ``tests/golden/``.

Regenerate the corpus with::

    PYTHONPATH=src python tests/golden_corpus.py

A change that regenerates it says in CHANGES.md which entries moved and why.
``--diff`` lists them: it regenerates the corpus into a temporary
directory, writes nothing under ``tests/golden/``, prints each JSON path
that moved with its committed and its fresh value, one per line, and exits
1 when anything moved::

    PYTHONPATH=src python tests/golden_corpus.py --diff
"""
from __future__ import annotations

import argparse
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
    # r < rho: which of the Delta estimate's steps are feasible, so its
    # n_feasible, depends on the drawn directions
    "delta_draws": _config(
        conditions={"gamma1": 0.5, "gamma2": 0.05, "r": 0.8, "rho": 1.0, "probes": 10}
    ),
    # perfbench's verify_suite config: 7 chunks of the lemma sweep, 13
    # probes per residual slice of the condition checks
    "verify_scale": _config(
        data={"generate": {"n_samples": 5000, "dim": 3, "theta_star": [1.0, -0.5, 2.0]}},
        partition={"blocks": 101},
        conditions={"gamma1": 0.5, "gamma2": 0.2, "r": 2.0, "rho": 1.0, "probes": 200},
        verify={"lemma_instances": 200, "delta_budget": 200},
    ),
    # four restarts with no step decay and a fixed adversary step: pins the
    # seeded perturbation draws of restarts 2 and 3 and their bases
    "restarts": _config(solver={"iterations": 100, "restarts": 4, "decay": False, "step_g": 0.05}),
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
    Case("delta_draws_verify", "delta_draws", "verify"),
    Case("restarts_simulate", "restarts", "simulate"),
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


def write_csv_input(out_dir: Path) -> None:
    """The dataset the ``csv`` config fits: 301 rows, d=3, 5 rows at 1e6."""
    data = generate(301, 3, [0.5, 1.0, -1.0], DesignSpec.identity(3), NoiseSpec(), 42)
    bad, _ = corrupt(data, CorruptionSpec(count=5), 43)
    save_dataset(out_dir / CSV_FILE, bad)


def regenerate(out_dir: Path = GOLDEN_DIR) -> None:
    """Write the corpus to out_dir; the cases read the committed CSV input."""
    out_dir.mkdir(exist_ok=True)
    write_csv_input(out_dir)
    (out_dir / ENVIRONMENT_FILE).write_text(_dump(environment()))
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (out_dir / f"{case.name}.json").write_text(run_case(case, Path(tmp)))
    (out_dir / FROZEN_FILE).write_text(_dump(frozen_theta_hats()))
    (out_dir / CERTIFICATE_FILE).write_text(_dump(certificates()))


MISSING = object()  # the value at a key that one side lacks


def moved_paths(old, new, where="$"):
    """The JSON paths, in sorted key order, at which the JSON value new
    differs from old, with old's and new's value there (MISSING for a key
    one of them lacks); a list that changed length moves as a whole."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            a, b = old.get(key, MISSING), new.get(key, MISSING)
            if a is MISSING or b is MISSING:
                yield f"{where}.{key}", a, b
            else:
                yield from moved_paths(a, b, f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved_paths(a, b, f"{where}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield where, old, new


def diff() -> int:
    """Print each moved path of a fresh corpus against the committed one,
    as `file: path: old -> new`; 1 when anything moved, else 0."""
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "golden"
        regenerate(fresh)
        names = {p.name for d in (GOLDEN_DIR, fresh) for p in d.iterdir()}
        for name in sorted(names):
            old, new = (d / name for d in (GOLDEN_DIR, fresh))
            old_text = old.read_text() if old.exists() else None
            new_text = new.read_text() if new.exists() else None
            if old_text == new_text:
                continue
            if name.endswith(".json") and old_text is not None and new_text is not None:
                paths = list(moved_paths(json.loads(old_text), json.loads(new_text)))
            else:  # the CSV input, or a file only one side has
                paths = [("$", MISSING if old_text is None else "committed",
                          MISSING if new_text is None else "fresh")]
            for where, a, b in paths or [("$", "same JSON", "other bytes")]:
                a, b = ("<missing>" if v is MISSING else json.dumps(v) for v in (a, b))
                print(f"{name}: {where}: {a} -> {b}")
                moved += 1
    print(f"{moved} moved", file=sys.stderr)
    return int(moved > 0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden report corpus.")
    parser.add_argument("--diff", action="store_true",
                        help="print what a regeneration would move, and write nothing")
    if parser.parse_args().diff:
        sys.exit(diff())
    regenerate()
    print(
        f"wrote {len(CASES)} cases, {FROZEN_FILE} and {CERTIFICATE_FILE} to {GOLDEN_DIR}",
        file=sys.stderr,
    )
