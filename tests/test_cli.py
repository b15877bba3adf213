import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momreg import (
    CorruptionSpec,
    DesignSpec,
    InvalidInput,
    LinearPredictor,
    MomregError,
    NoiseSpec,
    ParseError,
    Regularizer,
    SolverConfig,
    default_slope_weights,
    estimate_delta,
    lemma_sweep,
    load_dataset,
    make_partition,
)
from momreg import blocks, cli
from momreg.cli import (
    _RUNNERS,
    main,
    resolve_config,
    run_corrupt_bench,
    run_fit,
    run_simulate,
    run_verify,
)
from momreg.errors import ConfigError


def _sim_config(**extra):
    cfg = {
        "data": {
            "generate": {
                "n_samples": 300,
                "dim": 2,
                "theta_star": [1.0, -0.5],
                "covariance": "identity",
                "noise": {"kind": "gaussian", "scale": 1.0, "dof": None},
            }
        },
        "partition": {"blocks": 15},
        "solver": {"iterations": 80, "restarts": 2},
        "conditions": {"gamma1": 0.5, "gamma2": 0.2, "r": 2.0, "rho": 1.0},
        "trials": 2,
        "seed": 3,
    }
    cfg.update(extra)
    return cfg


class TestResolveConfig:
    def test_unknown_key_rejected(self):
        for doc, key in [
            ({"bogus": 1}, "bogus"),
            ({"data.csv": None}, "data.csv"),
            ({"solver": {"step": 0.1}}, "solver.step"),
            ({"corruption": {"count": 3, "mgnitude": 5}}, "corruption.mgnitude"),
        ]:
            with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
                resolve_config(doc)

    def test_flag_overrides(self):
        cfg = resolve_config(_sim_config(), {"seed": 99, "blocks": 7, "trials": 5})
        assert cfg["seed"] == 99
        assert cfg["partition"]["blocks"] == 7
        assert cfg["trials"] == 5

    def test_even_blocks_auto_decrement(self, capsys):
        cfg = resolve_config(_sim_config(), {"blocks": 10})
        assert cfg["partition"]["blocks"] == 9
        assert "auto-decremented" in capsys.readouterr().err


class TestRunFit:
    def test_three_row_csv_deterministic(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x0,y\n1.0,2.0\n2.0,4.0\n3.0,6.1\n")
        cfg = resolve_config(
            {
                "data": {"csv": str(path)},
                "partition": {"blocks": 3},
                "solver": {"iterations": 50},
                "seed": 0,
            }
        )
        cfg["mode"] = "fit"
        a = run_fit(cfg)
        b = run_fit(cfg)
        assert a == b
        assert a["trials"][0]["blocks"] == 3
        theta = a["trials"][0]["mom"]["theta_hat"]
        assert abs(theta[0] - 2.0) < 0.1

    def test_non_numeric_cell_raises_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n1.0,2.0\nnope,4.0\n")
        cfg = resolve_config({"data": {"csv": str(path)}})
        with pytest.raises(ParseError) as excinfo:
            run_fit(cfg)
        assert excinfo.value.row == 3

    def test_generated_fallback_reports_excess(self):
        cfg = resolve_config(_sim_config())
        out = run_fit(cfg)
        assert "excess_risk" in out["trials"][0]["mom"]
        assert out["trials"][0]["mom"]["excess_risk"] < 0.5


class TestRunSimulate:
    def test_single_trial_matches_run_fit_accuracy(self):
        cfg = resolve_config(_sim_config(trials=1))
        rep = run_simulate(cfg)
        assert len(rep["trials"]) == 1
        assert rep["trials"][0]["mom"]["excess_risk"] < 0.5

    def test_reports_confidence_and_quantiles(self):
        cfg = resolve_config(_sim_config())
        rep = run_simulate(cfg)
        assert 0.0 <= rep["aggregate"]["confidence_theorem1"] <= 1.0
        assert set(rep["aggregate"]["mom_excess"]) == {
            "q05",
            "q25",
            "median",
            "q75",
            "q95",
        }

    def test_trial_isolation_under_workers(self):
        cfg1 = resolve_config(_sim_config(trials=3))
        cfg2 = resolve_config(_sim_config(trials=3), {"workers": 2})
        a = run_simulate(cfg1)
        b = run_simulate(cfg2)
        assert a["trials"] == b["trials"]

    def test_import_leaves_the_process_pool_out(self):
        # only workers > 1 needs the pool; a fresh interpreter shows what
        # importing the CLI alone loads
        src = str(Path(cli.__file__).parents[1])
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        child = "import sys, momreg.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_per_trial_seeds_pure_function_of_master_and_index(self):
        # running 2 trials then 3 trials leaves the first two records alone
        a = run_simulate(resolve_config(_sim_config(trials=2)))
        b = run_simulate(resolve_config(_sim_config(trials=3)))
        assert a["trials"] == b["trials"][:2]


_THEOREM2_KEYS = {
    "psi_error", "psi_bound", "psi_ok", "distance", "distance_bound", "distance_ok",
    "excess", "excess_bound", "excess_ok", "passed",
}


class TestRegularizedSimulate:
    @pytest.mark.parametrize("kind, weights", [("l1", None), ("slope", None), ("slope", [1.5, 1.0])])
    def test_theorem2_records_and_confidence(self, kind, weights):
        objective = {"lambda": 0.05, "regularizer": kind, "slope_weights": weights}
        rep = run_simulate(resolve_config(_sim_config(objective=objective)))
        for rec in rep["trials"]:
            assert set(rec["theorem2"]) == _THEOREM2_KEYS
            assert rec["theorem2"]["passed"] == (
                rec["theorem2"]["psi_ok"]
                and rec["theorem2"]["distance_ok"]
                and rec["theorem2"]["excess_ok"]
            )
        confidence = rep["aggregate"]["confidence_theorem2"]
        assert 0.0 <= confidence <= 1.0
        assert confidence == np.mean([rec["theorem2"]["passed"] for rec in rep["trials"]])

    def test_slope_defaults_to_the_default_weights(self):
        objective = {"lambda": 0.05, "regularizer": "slope"}
        default = run_simulate(resolve_config(_sim_config(objective=objective)))
        objective["slope_weights"] = default_slope_weights(2).tolist()
        explicit = run_simulate(resolve_config(_sim_config(objective=objective)))
        assert default["trials"] == explicit["trials"]

    @pytest.mark.parametrize("mode", ["fit", "simulate"])
    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_number_of_slope_weights_exit_code(self, tmp_path, capsys, mode, count):
        cfg = dict(_D3_CONFIG, objective={
            "lambda": 0.05, "regularizer": "slope", "slope_weights": [2.0] * count
        })
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([mode, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: theta has 3 entries, slope weights {count}\n"

    @pytest.mark.parametrize("mode", ["simulate", "fit", "verify"])
    @pytest.mark.parametrize(
        "objective, message",
        [
            (
                {"regularizer": "none", "lambda": 0.5, "slope_weights": [3.0, 1.0]},
                "objective.lambda must be 0 with regularizer none, got 0.5",
            ),
            (
                {"regularizer": "none", "lambda": 0.5},
                "objective.lambda must be 0 with regularizer none, got 0.5",
            ),
            (
                {"regularizer": "none", "slope_weights": [3.0, 1.0, 1.0]},
                "objective.slope_weights must be null with regularizer none, got [3.0, 1.0, 1.0]",
            ),
            (
                {"regularizer": "l1", "lambda": 0.05, "slope_weights": [3.0, 1.0, 1.0]},
                "objective.slope_weights must be null with regularizer l1, got [3.0, 1.0, 1.0]",
            ),
        ],
    )
    def test_ignored_objective_values_exit_code(
        self, tmp_path, capsys, monkeypatch, mode, objective, message
    ):
        # verify rejects them before its lemma sweep
        monkeypatch.setattr(cli, "lemma_sweep", lambda *a, **kw: pytest.fail("sweep ran"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, "objective", objective)))
        assert main([mode, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("mode", ["simulate", "fit", "verify"])
    def test_default_objective_values_run(self, tmp_path, mode):
        objective = {"regularizer": "none", "lambda": 0.0, "slope_weights": None}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, "objective", objective)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([mode, "--config", str(cfg_path)]) == 0


class TestSparseThetaStar:
    def test_default_theta_star_is_the_sparse_spec(self):
        gen = {"n_samples": 60, "dim": 7}
        cfg = resolve_config({"data": {"generate": gen}, "partition": {"blocks": 5}})
        _, theta_star, clean, *_ = cli._trial_inputs(cfg, 0)
        np.testing.assert_array_equal(theta_star, [1.0] * 5 + [0.0] * 2)
        assert clean.dim == 7

    def test_explicit_sparse_spec(self):
        gen = {"n_samples": 60, "dim": 4, "theta_star": {"sparse": {"support": 2, "value": -0.5}}}
        cfg = resolve_config({"data": {"generate": gen}, "partition": {"blocks": 5}})
        np.testing.assert_array_equal(cli._trial_inputs(cfg, 0)[1], [-0.5, -0.5, 0.0, 0.0])

    @pytest.mark.parametrize("mode", ["fit", "simulate", "verify", "corrupt-bench"])
    def test_support_above_dim_exit_code(self, tmp_path, capsys, mode):
        cfg = {"data": {"generate": {"n_samples": 60, "dim": 3}}, "partition": {"blocks": 5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([mode, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: data.generate.theta_star.sparse.support 5 exceeds data.generate.dim 3\n"
        )

    def test_theta_star_of_the_wrong_length_names_its_keys(self):
        gen = {"n_samples": 60, "dim": 3, "theta_star": [1.0, 2.0]}
        cfg = resolve_config({"data": {"generate": gen}, "partition": {"blocks": 5}})
        message = "^data.generate.theta_star has 2 entries, data.generate.dim is 3$"
        with pytest.raises(ConfigError, match=message):
            cli._trial_inputs(cfg, 0)


class TestMainEntry:
    def test_simulate_byte_identical_reports(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_sim_config()))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("meta")
        b.pop("meta")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_csv_out_rows(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_sim_config()))
        flat = tmp_path / "trials.csv"
        main(
            [
                "simulate",
                "--config",
                str(cfg_path),
                "--csv-out",
                str(flat),
            ]
        )
        lines = flat.read_text().strip().splitlines()
        assert lines[0] == "trial,estimator,excess_risk,distance,passed"
        assert len(lines) == 1 + 2 * 2  # two trials x (mom, ols)

    def test_fit_csv_out_rows(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_sim_config()))
        flat = tmp_path / "fit.csv"
        assert main(["fit", "--config", str(cfg_path), "--csv-out", str(flat)]) == 0
        rows = [line.split(",") for line in flat.read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["0", "mom"], ["0", "ols"]]
        assert [row[4] for row in rows] == ["", ""]  # a fit runs no theorem check

    def test_csv_fit_csv_out_writes_only_the_header(self, tmp_path):
        # a CSV fit has no theta_star, so no record has an excess risk
        data = tmp_path / "data.csv"
        data.write_text("x0,y\n" + "".join(f"{x}.0,{2 * x}.5\n" for x in range(9)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"csv": str(data)}, "partition": {"blocks": 3}}))
        flat = tmp_path / "fit.csv"
        assert main(["fit", "--config", str(cfg_path), "--csv-out", str(flat)]) == 0
        assert flat.read_text() == "trial,estimator,excess_risk,distance,passed\n"

    def test_verify_exit_zero_and_negative_control(self, tmp_path):
        cfg = _sim_config()
        cfg["verify"] = {"lemma_instances": 10, "negative_control": False}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cfg_path)]) == 0
        cfg["verify"]["negative_control"] = True
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cfg_path)]) == 1

    def test_verify_violation_records_name_their_instance(self, monkeypatch):
        # a constant fault in every block increment makes lemma violations:
        # the residual routine's k increment rows lose 10 from each block mean
        real_sums = blocks._residual_sums

        def faulty_sums(X, y, stack, k, out, noisy=False):
            real_sums(X, y, stack, k, out, noisy)
            out[:k] -= 10.0 * (X.shape[0] // out.shape[-1])

        monkeypatch.setattr(blocks, "_residual_sums", faulty_sums)
        cfg = resolve_config(_set_path(_D3_CONFIG, "verify", {
            "lemma_instances": 3, "delta_budget": 4, "negative_control": True
        }))
        records = run_verify(cfg)["aggregate"]["lemma"]["violations"]
        sweep = lemma_sweep(3, seed=cfg["seed"])
        assert records[:-1] == [
            {"instance": v.instance, "probe": v.probe_index, "block": v.block_index,
             "conclusion": v.conclusion, "lhs": v.lhs, "rhs": v.rhs}
            for v in sweep.violations
        ]
        assert {rec["instance"] for rec in records[:-1]} == {0, 1, 2}
        assert records[-1] == {
            "instance": -1, "probe": -1, "block": -1, "conclusion": "negative_control",
            "lhs": -1.0, "rhs": 1.0,
        }

    def test_delta_estimate_draws_from_its_own_stream(self):
        # stream 6 of the master seed, not the lemma sweep's default_rng(seed);
        # at r = 0.8 the feasible count depends on the drawn directions
        cfg = resolve_config(_set_path(_set_path(
            _D3_CONFIG, "conditions.r", 0.8), "verify.delta_budget", 200))
        report = run_verify(cfg)["aggregate"]["delta_estimate"]
        args = (Regularizer.l1(), LinearPredictor([1.0, -0.5, 2.0]), 1.0, 0.8,
                DesignSpec.identity(3))
        own = estimate_delta(*args, seed=np.random.SeedSequence([cfg["seed"], 0, 6]))
        assert report == own.to_dict()
        assert report != estimate_delta(*args, seed=cfg["seed"]).to_dict()

    def test_python_m_momreg_runs_main(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_D3_CONFIG))
        for argv, code in (
            (["verify", "--config", str(cfg_path)], 0),
            (["verify", "--no-such-flag"], 2),
        ):
            monkeypatch.setattr(sys, "argv", ["momreg", *argv])
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("momreg", run_name="__main__")
            assert exc.value.code == code
        out, err = capsys.readouterr()
        assert '"lemma"' in out and "unrecognized arguments: --no-such-flag" in err

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 0}))
        assert main(["simulate", "--config", str(cfg_path)]) == 2

    def test_out_of_memory_exits_2_naming_the_allocation(self, tmp_path):
        # One child process, its address space limited to about 1.5 GB, so a
        # fit with 1e9 restarts fails on its first large array and no other
        # process on the machine is affected.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, "solver.restarts", 1_000_000_000)))
        limit = 1500 << 20
        child = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from momreg.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-c", child, "fit", "--config", str(cfg_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        # one line naming the size of the allocation that failed
        assert re.fullmatch(r"error: out of memory: Unable to allocate [^\n]+\n", proc.stderr), proc.stderr

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["simulate", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config") and "Traceback" not in err

    def test_invalid_json_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"trials": 2,')
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: config")

    def test_config_not_an_object_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: config {str(cfg_path)!r} must hold a JSON object\n"

    @pytest.mark.parametrize("blocks", [0, -3])
    def test_nonpositive_blocks_exit_code(self, tmp_path, capsys, blocks):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_sim_config(partition={"blocks": blocks})))
        assert main(["simulate", "--config", str(bad)]) == 2
        assert "partition.blocks" in capsys.readouterr().err
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_sim_config()))
        assert main(["simulate", "--config", str(good), "--blocks", str(blocks)]) == 2
        assert "partition.blocks" in capsys.readouterr().err

    def test_corrupt_bench_aggregates(self, tmp_path):
        cfg = _sim_config(trials=2)
        cfg["data"]["generate"]["n_samples"] = 600
        cfg["partition"]["blocks"] = 31
        cfg["corruption"] = {"count": 5, "mode": "huge_response", "magnitude": 1e6}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "bench.json"
        flat = tmp_path / "bench.csv"
        argv = ["corrupt-bench", "--config", str(cfg_path), "--out", str(out)]
        assert main(argv + ["--csv-out", str(flat)]) == 0
        rep = json.loads(out.read_text())
        agg = rep["aggregate"]
        assert agg["corrupted_vs_clean_ols_ratio"] > 100
        assert agg["median_mom_excess"] < agg["median_corrupted_ols_excess"]
        rows = [line.split(",")[:2] for line in flat.read_text().splitlines()[1:]]
        assert rows == [["0", "mom"], ["0", "ols"], ["1", "mom"], ["1", "ols"]]


# What each mode computes from its inputs.
_RESULTS = {
    "fit": lambda rep: rep["trials"][0]["mom"]["theta_hat"],
    "simulate": lambda rep: [rec["mom"]["theta_hat"] for rec in rep["trials"]],
    "corrupt-bench": lambda rep: [rec["mom"]["theta_hat"] for rec in rep["trials"]],
    "verify": lambda rep: [
        rep["aggregate"][key]["median_stats"] for key in ("condition_one", "condition_two")
    ],
}


@pytest.mark.parametrize("mode", sorted(_RESULTS))
def test_every_mode_takes_permute_corruption_and_blocks(tmp_path, capsys, mode):
    # Every mode builds its inputs in one pipeline, so each one permutes,
    # corrupts, and refuses more blocks than samples.
    doc = _set_path(_D3_CONFIG, "corruption", {"count": 3, "magnitude": 1e3})

    def result(doc):
        return _RESULTS[mode](_RUNNERS[mode](resolve_config(doc)))

    corrupted = result(doc)
    assert result(_set_path(doc, "partition.permute", True)) != corrupted
    if mode != "corrupt-bench":  # which corrupts 10 rows when corruption is null
        assert result(_set_path(doc, "corruption", None)) != corrupted
    if mode == "fit":
        assert len(run_fit(resolve_config(doc))["trials"][0]["corrupted_indices"]) == 3
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main([mode, "--config", str(cfg_path), "--blocks", "121"]) == 2
    assert capsys.readouterr().err == "error: requested n=121 blocks from N=120 samples\n"


@pytest.mark.parametrize("mode", ["fit", "simulate", "corrupt-bench"])
def test_corrupted_indices_name_rows_of_the_fitted_data(mode):
    # 3 rows at 1e6 and permute: the record names the rows of the permuted
    # data that hold 1e6, not the rows of the sample before the permutation.
    doc = _set_path(_D3_CONFIG, "corruption", {"count": 3, "magnitude": 1e6})
    doc = _set_path(doc, "partition.permute", True)
    _, _, _, data, corrupted, _ = cli._trial_inputs(resolve_config(doc), 0)
    assert corrupted == np.flatnonzero(data.responses == 1e6).tolist()
    assert len(corrupted) == 3
    record = _RUNNERS[mode](resolve_config(doc))["trials"][0]
    assert record["corrupted_indices"] == corrupted
    unpermuted = _set_path(doc, "partition.permute", False)
    _, _, _, data, corrupted, _ = cli._trial_inputs(resolve_config(unpermuted), 0)
    assert corrupted == np.flatnonzero(data.responses == 1e6).tolist()
    assert corrupted != record["corrupted_indices"]


def test_permute_reorders_whole_samples():
    # the same (x, y) rows as the sample, in another order
    cfg = resolve_config(_set_path(_D3_CONFIG, "partition.permute", True))
    _, _, clean, data, _, _ = cli._trial_inputs(cfg, 0)
    rows = np.column_stack([clean.features, clean.responses])
    permuted = np.column_stack([data.features, data.responses])
    assert not np.array_equal(rows, permuted)
    np.testing.assert_array_equal(np.unique(rows, axis=0), np.unique(permuted, axis=0))


def test_each_mode_offers_the_config_and_the_flags():
    parser = cli.build_parser()
    (modes,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(modes) == set(_RUNNERS)
    for sub in modes.values():
        options = set(sub._option_string_actions) - {"-h", "--help"}
        assert options == {"--config"} | {"--" + key.replace("_", "-") for key in cli._FLAGS}
        assert {a.dest for a in sub._actions} == {"help", "config", *cli._FLAGS}


class TestRunVerify:
    def test_no_lemma_instances_report_the_four_conclusions(self, tmp_path, capsys):
        # lemma_instances: 0 draws no chunk; verify exits 0 and keeps the
        # report's shape, each conclusion at 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, "verify.lemma_instances", 0)))
        assert main(["verify", "--config", str(cfg_path)]) == 0
        lemma = json.loads(capsys.readouterr().out)["lemma"]
        zeros = dict.fromkeys(["far", "scaled_far", "scaled_near", "sphere_near"], 0)
        assert lemma == {"instances": 0, "checked": zeros, "skipped": zeros, "violations": []}
        some = run_verify(resolve_config(_D3_CONFIG))["aggregate"]["lemma"]
        assert list(some["checked"]) == list(some["skipped"]) == list(zeros)

    def test_lemma_block_present_and_clean(self):
        cfg = resolve_config(_sim_config())
        cfg["verify"]["lemma_instances"] = 20
        rep = run_verify(cfg)
        lemma = rep["aggregate"]["lemma"]
        assert lemma["violations"] == []
        assert sum(lemma["checked"].values()) > 0

    def test_r_sweep_table(self):
        cfg = resolve_config(_sim_config())
        cfg["conditions"]["probes"] = 2
        cfg["verify"]["lemma_instances"] = 5
        cfg["verify"]["r_grid"] = [1.0, 2.0, 3.0]
        rep = run_verify(cfg)
        table = rep["aggregate"]["r_sweep"]
        assert [row["r"] for row in table] == [1.0, 2.0, 3.0]
        for row in table:
            assert 0.0 <= row["mean_fraction"] <= 1.0

    def test_zero_probes_run_no_condition_checks(self, tmp_path, capsys):
        # as in simulate: no probes, no condition reports and no r sweep
        doc = _set_path(_D3_CONFIG, "conditions.probes", 0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(doc, "verify.r_grid", [1.0, 2.0])))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--config", str(cfg_path)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        report = json.loads(capsys.readouterr().out)
        assert report["condition_one"] is report["condition_two"] is report["r_sweep"] is None
        assert sum(report["lemma"]["checked"].values()) > 0


class TestInputErrors:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell_exit_code(self, tmp_path, capsys, cell):
        data = tmp_path / "bad.csv"
        data.write_text(f"x0,y\n1.0,2.0\n{cell},4.0\n3.0,6.0\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"csv": str(data)}, "partition": {"blocks": 3}}))
        assert main(["fit", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 3: non-finite cell") and "Traceback" not in err
        with pytest.raises(ParseError) as excinfo:
            load_dataset(data)
        assert excinfo.value.row == 3

    def test_csv_cell_whose_square_overflows_exit_code(self, tmp_path, capsys):
        # finite, but above the magnitude config numbers are held to: its
        # square overflows inside the fit
        data = tmp_path / "big.csv"
        data.write_text("x0,y\n1e200,1e200\n1.0,2.0\n2.0,4.0\n3.0,6.0\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"csv": str(data)}, "partition": {"blocks": 3}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: row 2: cell of magnitude above 1e+100 in ['1e200', '1e200']\n"
        )

    def test_collinear_csv_at_a_large_scale_exit_code(self, tmp_path, capsys):
        # x0 == x1 at about 1e20: the 1e-10 ridge vanishes beside a Gram of
        # about 1e40, so even the ridge solve is singular
        rng = np.random.default_rng(0)
        cells = zip((1e20 * rng.standard_normal(200)).tolist(), rng.standard_normal(200).tolist())
        data = tmp_path / "collinear.csv"
        data.write_text("x0,x1,y\n" + "".join(f"{x!r},{x!r},{y!r}\n" for x, y in cells))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"csv": str(data)}, "partition": {"blocks": 5}}))
        assert main(["fit", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: the least-squares Gram matrix X^T X is singular, even with a 1e-10 ridge\n"
        )

    @pytest.mark.parametrize("mode", ["simulate", "corrupt-bench", "verify"])
    def test_csv_rejected_by_generating_modes(self, tmp_path, capsys, mode):
        cfg = _sim_config()
        cfg["data"]["csv"] = str(tmp_path / "missing.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([mode, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mode} generates its data") and "data.csv" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
    def test_unreadable_data_csv_exit_code(self, tmp_path, capsys, kind):
        data = tmp_path / "data.csv"
        if kind == "directory":
            data.mkdir()
        elif kind == "latin-1":
            data.write_bytes("x0,y\n1.0,2.0\n2.0,4.0\n3.0,6.0\n# caf\xe9\n".encode("latin-1"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": {"csv": str(data)}, "partition": {"blocks": 3}}))
        assert main(["fit", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        expected = "error: data.csv" if kind == "latin-1" else "error: cannot read data.csv"
        assert err.startswith(expected) and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--out", "--csv-out"])
    def test_output_into_missing_directory_exit_code(self, tmp_path, capsys, monkeypatch, flag):
        calls = []
        trial = cli._run_single_trial
        monkeypatch.setattr(cli, "_run_single_trial", lambda payload: calls.append(payload) or trial(payload))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_D3_CONFIG))
        target = str(tmp_path / "absent" / "report")
        assert main(["simulate", "--config", str(cfg_path), flag, target]) == 2
        assert capsys.readouterr().err == f"error: cannot write {target!r}: No such file or directory\n"
        assert calls == []  # refused before the first trial
        for bad, reason in ((tmp_path, "Is a directory"), (cfg_path / "report", "Not a directory")):
            assert main(["simulate", "--config", str(cfg_path), flag, str(bad)]) == 2
            assert capsys.readouterr().err == f"error: cannot write {str(bad)!r}: {reason}\n"
        assert calls == []
        good = tmp_path / "report"
        assert main(["simulate", "--config", str(cfg_path), flag, str(good)]) == 0
        assert len(calls) == 1 and good.exists()

    def test_invalid_model_value_exit_code(self, tmp_path, capsys):
        cfg = _sim_config()
        cfg["data"]["generate"]["covariance"] = [[1.0, 2.0], [2.0, 1.0]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: covariance must be positive definite")
        with pytest.raises(InvalidInput):
            make_partition(0, 1)
        assert issubclass(InvalidInput, ValueError) and issubclass(InvalidInput, MomregError)


_D3_CONFIG = {
    "data": {"generate": {"n_samples": 120, "dim": 3, "theta_star": [1.0, -0.5, 2.0]}},
    "partition": {"blocks": 7},
    "solver": {"iterations": 10, "restarts": 1},
    "conditions": {"probes": 2},
    "verify": {"lemma_instances": 2, "delta_budget": 4},
}


def _set_path(doc: dict, key: str, value) -> dict:
    doc = json.loads(json.dumps(doc))
    *parents, leaf = key.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):  # an earlier mutation replaced a parent
            return doc
    node[leaf] = value
    return doc


class TestConfigValues:
    # Each of these raised a traceback, or ran and exited 0 having done
    # something else than asked, before resolve_config checked values.
    @pytest.mark.parametrize(
        "key, value",
        [
            ("trials", "x"),
            ("seed", "abc"),
            ("seed", -1),
            ("conditions.probes", "a"),
            ("data.generate.theta_star", "abc"),
            ("objective.lambda", "x"),
            ("solver.iterations", "x"),
            ("verify.r_grid", "abc"),
            ("verify.r_grid", [1.0, 0.0]),
            ("conditions.block_fraction", "x"),
            ("data.generate", None),
            ("conditions", None),
            ("data.generate.dim", 0),
            ("verify.lemma_instances", -2),
            ("verify.delta_budget", -3),
            ("data.generate.theta_star", {"sparse": {"support": -1, "value": 1.0}}),
            ("solver.iterations", 2.5),
            ("corruption.indices", [10**30]),
            ("corruption.indices", [-1]),
            ("data.generate.noise.kind", "cauchy"),
        ],
    )
    @pytest.mark.parametrize("mode", ["simulate", "verify"])
    def test_bad_value_exit_code(self, tmp_path, capsys, mode, key, value):
        doc = _set_path(_D3_CONFIG, key, value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([mode, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}") and " must be " in err
        with pytest.raises(ConfigError):
            resolve_config(doc)

    # Each of these overflowed inside the run (a warning, then exit 0 with a
    # null Delta or exit 2), or fell back to the default probe distance.
    @pytest.mark.parametrize(
        "key, value",
        [
            ("conditions.rho", 1e300),
            ("data.generate.noise.scale", 1e300),
            ("data.generate.theta_star", [1.0, -1e101, 2.0]),
            ("conditions.far_distance", 0),
            ("conditions.near_distance", 0.0),
        ],
    )
    @pytest.mark.parametrize("mode", ["simulate", "verify"])
    def test_huge_and_zero_values_exit_cleanly(self, tmp_path, capsys, mode, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, key, value)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([mode, "--config", str(cfg_path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")

    # An r of 0 puts every probe at f*, where every increment is 0 >= 0: a
    # pass fraction of 1.0 that measures nothing.
    def test_zero_r_grid_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, "verify.r_grid", [0.0])))
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: verify.r_grid must be > 0, got [0.0]\n"

    def test_null_probe_distances_keep_the_defaults(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        doc = _set_path(_D3_CONFIG, "conditions.far_distance", None)
        cfg_path.write_text(json.dumps(_set_path(doc, "conditions.near_distance", None)))
        assert main(["verify", "--config", str(cfg_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        r = resolve_config(doc)["conditions"]["r"]
        np.testing.assert_allclose(report["condition_one"]["distances"], r, rtol=1e-12)
        np.testing.assert_allclose(report["condition_two"]["distances"], r / 2.0, rtol=1e-12)

    # An index list places exactly its rows: [] is not a request for random
    # rows, and a count of 0 does not drop the list.
    @pytest.mark.parametrize("count, indices", [(2, []), (0, [1])])
    @pytest.mark.parametrize("mode", sorted(_RUNNERS))
    def test_corruption_indices_against_count_exit_code(
        self, tmp_path, capsys, mode, count, indices
    ):
        doc = _set_path(_D3_CONFIG, "corruption", {"count": count, "indices": indices})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([mode, "--config", str(cfg_path)]) == 2
        expected = f"explicit index list has {len(indices)} entries, count is {count}"
        if mode == "corrupt-bench" and count == 0:
            expected = "corrupt-bench needs corruption.count >= 1"
        assert capsys.readouterr().err == f"error: {expected}\n"

    # A corruption object is merged over the corruption defaults and checked
    # like any other object.  Before that, the first of these ran at
    # magnitude 1e6, the second raised KeyError and the third ran clean.
    @pytest.mark.parametrize(
        "corruption, message",
        [
            ({"count": 3, "mgnitude": 5}, "unknown config key 'corruption.mgnitude'"),
            ({"indices": [1, 2]}, "explicit index list has 2 entries, count is 0"),
            (
                {"count": 0, "mode": "bogus"},
                "corruption.mode must be one of huge_response, sign_flip, "
                "adversarial_leverage, got 'bogus'",
            ),
        ],
        ids=["misspelt_key", "indices_without_count", "unknown_mode"],
    )
    @pytest.mark.parametrize("mode", sorted(_RUNNERS))
    def test_corruption_object_exit_code(self, tmp_path, capsys, mode, corruption, message):
        doc = _set_path(_D3_CONFIG, "corruption", corruption)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([mode, "--config", str(cfg_path)]) == 2
        if mode == "corrupt-bench" and "count is 0" in message:
            message = "corrupt-bench needs corruption.count >= 1"
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(ConfigError):
            cli._trial_inputs(resolve_config(doc), 0)

    def test_partial_corruption_gets_the_defaults(self):
        cfg = resolve_config(_set_path(_D3_CONFIG, "corruption", {"count": 3}))
        assert cfg["corruption"] == {
            "count": 3, "indices": None, "magnitude": 1000000.0, "mode": "huge_response"
        }
        assert resolve_config(_D3_CONFIG)["corruption"] is None

    @pytest.mark.parametrize(
        "section, kind",
        [("solver", SolverConfig), ("data.generate.noise", NoiseSpec),
         ("corruption", CorruptionSpec)],
    )
    def test_sections_are_the_library_defaults(self, section, kind):
        # Each section is handed to its type as keyword arguments (the solver
        # seed comes from the trial): it holds exactly the type's fields, at
        # their defaults, so a renamed field fails here and not mid-run, and
        # the CLI and the library cannot drift apart.
        fields = {f.name: f.default for f in dataclasses.fields(kind) if f.name != "seed"}
        defaults = cli._defaults(section)
        assert defaults.keys() == fields.keys()
        for name, default in fields.items():
            if default is not dataclasses.MISSING:
                assert type(defaults[name]) is type(default) and defaults[name] == default
        cfg = resolve_config(_set_path(_D3_CONFIG, "corruption", {"count": 3}))
        assert CorruptionSpec(**cfg["corruption"]) == CorruptionSpec(3)

    def test_corrupt_bench_needs_corrupted_rows(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, "corruption", {"count": 0})))
        assert main(["corrupt-bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: corrupt-bench needs corruption.count >= 1\n"
        # a null corruption runs as 10 rows, and the report embeds every
        # corruption field the run used
        report = run_corrupt_bench(resolve_config(_D3_CONFIG))
        assert report["config"]["corruption"] == {
            "count": 10, "indices": None, "magnitude": 1000000.0, "mode": "huge_response"
        }
        assert [len(rec["corrupted_indices"]) for rec in report["trials"]] == [10]

    def test_bad_flag_value_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_D3_CONFIG))
        assert main(["verify", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert main(["simulate", "--config", str(cfg_path), "--workers", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: workers must be in [1, ")
        # --blocks on a partition that is not an object raised a TypeError
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, "partition", 5)))
        assert main(["simulate", "--config", str(cfg_path), "--blocks", "3"]) == 2
        assert capsys.readouterr().err == "error: partition must be an object, got 5\n"

    def test_valid_values_pass(self):
        cfg = resolve_config(
            _set_path(
                _set_path(_D3_CONFIG, "corruption", {"count": 2, "indices": [0, 5]}),
                "data.generate.covariance",
                [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            )
        )
        assert cfg["corruption"]["indices"] == [0, 5]
        for key, value in [
            ("verify.r_grid", [0.5, 1]),
            ("solver.step_f", 0.1),
            ("conditions.far_distance", None),
            ("data.generate.theta_star", {"sparse": {"support": 3}}),
        ]:
            resolve_config(_set_path(_D3_CONFIG, key, value))


# Small configs of the four modes (fit on generated data, so that a fuzzed
# data.csv is read; fit once more with explicit corruption rows), and the
# leaves a fuzz example mutates: every key of the resolved config except
# mode and the output routing, whose string values would write files.
_FUZZ_CONFIGS = [
    ("fit", _D3_CONFIG),
    (
        "fit",
        _set_path(_D3_CONFIG, "corruption", {"count": 2, "mode": "sign_flip", "indices": [0, 5]}),
    ),
    ("simulate", _set_path(_D3_CONFIG, "objective", {"lambda": 0.05, "regularizer": "l1"})),
    ("corrupt-bench", _set_path(_D3_CONFIG, "corruption", {"count": 2, "magnitude": 1e6})),
    ("verify", _D3_CONFIG),
]
_FUZZ_SKIP = {"mode", "out", "csv_out"}


def _fuzz_keys(doc, prefix=""):
    for key, val in doc.items():
        path = prefix + key
        if path in _FUZZ_SKIP:
            continue
        yield path
        if isinstance(val, dict):
            yield from _fuzz_keys(val, path + ".")


_FUZZ_VALUES = st.sampled_from(
    ["x", None, [1], {"k": 1}, True, -1, -2.5, 0, 0.0, 10**12, 1e300, -1e300]
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_fuzz_exits_cleanly(data):
    mode, doc = data.draw(st.sampled_from(_FUZZ_CONFIGS))
    keys = sorted(_fuzz_keys(resolve_config(doc)))
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2)):
        doc = _set_path(doc, key, data.draw(_FUZZ_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        # huge values overflow on purpose; numpy's warnings about it are noise
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([mode, "--config", cfg_path])
    assert code in (0, 1, 2), err.getvalue()
