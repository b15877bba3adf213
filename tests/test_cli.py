import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momreg import InvalidInput, MomregError, ParseError, load_dataset, make_partition
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
        with pytest.raises(ConfigError):
            resolve_config({"bogus": 1})

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

    def test_per_trial_seeds_pure_function_of_master_and_index(self):
        # running 2 trials then 3 trials leaves the first two records alone
        a = run_simulate(resolve_config(_sim_config(trials=2)))
        b = run_simulate(resolve_config(_sim_config(trials=3)))
        assert a["trials"] == b["trials"][:2]


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

    def test_verify_exit_zero_and_negative_control(self, tmp_path):
        cfg = _sim_config()
        cfg["verify"] = {"lemma_instances": 10, "negative_control": False}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cfg_path)]) == 0
        cfg["verify"]["negative_control"] = True
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(cfg_path)]) == 1

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"trials": 0}))
        assert main(["simulate", "--config", str(cfg_path)]) == 2

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


class TestRunVerify:
    def test_lemma_block_present_and_clean(self):
        cfg = resolve_config(_sim_config())
        cfg["verify"]["lemma_instances"] = 20
        rep = run_verify(cfg)
        lemma = rep["aggregate"]["lemma"]
        assert lemma["violations"] == []
        assert sum(lemma["checked"].values()) > 0

    def test_r_sweep_table(self):
        cfg = resolve_config(_sim_config())
        cfg["verify"]["lemma_instances"] = 5
        cfg["verify"]["r_grid"] = [1.0, 2.0, 3.0]
        rep = run_verify(cfg)
        table = rep["aggregate"]["r_sweep"]
        assert [row["r"] for row in table] == [1.0, 2.0, 3.0]
        for row in table:
            assert 0.0 <= row["mean_fraction"] <= 1.0


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
    def test_output_into_missing_directory_exit_code(self, tmp_path, capsys, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_D3_CONFIG))
        target = str(tmp_path / "absent" / "report")
        assert main(["simulate", "--config", str(cfg_path), flag, target]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {target!r}")

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
            ("conditions.block_fraction", "x"),
            ("data.generate", None),
            ("conditions", None),
            ("data.generate.dim", 0),
            ("verify.lemma_instances", -2),
            ("verify.delta_budget", -3),
            ("data.generate.theta_star", {"sparse": {"support": -1, "value": 1.0}}),
            ("solver.iterations", 2.5),
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

    def test_corrupt_bench_needs_corrupted_rows(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_set_path(_D3_CONFIG, "corruption", {"count": 0})))
        assert main(["corrupt-bench", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: corrupt-bench needs corruption.count >= 1\n"
        # a null corruption runs as 10 rows, and the report says so
        report = run_corrupt_bench(resolve_config(_D3_CONFIG))
        assert report["config"]["corruption"] == {"count": 10}
        assert [len(rec["corrupted_indices"]) for rec in report["trials"]] == [10]

    def test_bad_flag_value_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_D3_CONFIG))
        assert main(["verify", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert main(["simulate", "--config", str(cfg_path), "--workers", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: workers must be in [1, ")

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
# data.csv is read), and the leaves a fuzz example mutates: every key of the
# resolved config except mode and the output routing, whose string values
# would write files.
_FUZZ_CONFIGS = {
    "fit": _D3_CONFIG,
    "simulate": _set_path(_D3_CONFIG, "objective", {"lambda": 0.05, "regularizer": "l1"}),
    "corrupt-bench": _set_path(_D3_CONFIG, "corruption", {"count": 2, "magnitude": 1e6}),
    "verify": _D3_CONFIG,
}
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
    mode = data.draw(st.sampled_from(sorted(_FUZZ_CONFIGS)))
    doc = _FUZZ_CONFIGS[mode]
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
