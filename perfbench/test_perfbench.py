"""Self-tests of the benchmark: input recipes, tiny runs, tracing patches."""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import momreg  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 7, 49])
@pytest.mark.parametrize("mode", [workloads.HUGE, workloads.LEVERAGE])
def test_recipes_match_datagen(seed, mode):
    d = 5
    theta_star = np.ones(d)
    X, y = workloads.gaussian_linear(1000, d, theta_star, 1.0, seed)
    ref = momreg.generate(
        1000, d, theta_star, momreg.DesignSpec.identity(d), momreg.NoiseSpec("gaussian", 1.0), seed
    )
    assert np.array_equal(X, ref.features) and np.array_equal(y, ref.responses)

    Xb, yb, idx = workloads.corrupt_rows(X, y, mode, 10, 1e6, seed + 9999)
    bad, ref_idx = momreg.corrupt(ref, momreg.CorruptionSpec(10, mode, 1e6), seed + 9999)
    assert list(idx) == ref_idx
    assert np.array_equal(Xb, bad.features) and np.array_equal(yb, bad.responses)


def _tiny(name):
    if name == "verify_suite":
        return workloads.VerifySuite(
            3, frozen=1, pool=2, block=2, verifies=1, quality_verifies=1, min_oracles=2
        )
    return workloads.WORKLOADS[name](3, frozen=1, pool=2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    wl = _tiny(name)
    try:
        results = run.timed_loop(wl, 0.0)
        gate = wl.gate()
        quality = wl.quality(results)
    finally:
        wl.close()
    assert len(results) == wl.min_ops
    assert all(r.ok for r in results), [r.error for r in results]
    assert gate.ok, gate.error
    assert all(math.isfinite(v) and v > 0 for v in quality.values()), quality


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "momreg" or name.startswith("momreg."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, dict):
                    for dkey, dvalue in value.items():
                        out[(name, key, dkey)] = dvalue
    out["audit"] = momreg.solver._WitnessPoolAudit.__dict__["value_from_losses"]
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert momreg.solver.median_block_index is not before[("momreg.solver", "median_block_index")]
            assert momreg.cli._RUNNERS["verify"] is not before[("momreg.cli", "_RUNNERS", "verify")]
            assert momreg.mom_minimax_fit is not before[("momreg", "mom_minimax_fit")]
            raise RuntimeError("leave the traced block by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_fit_counts_calls_and_splits_time():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((105, 2))
    data = momreg.Dataset(X, X @ np.ones(2) + rng.standard_normal(105))
    cfg = momreg.SolverConfig(iterations=10, restarts=2)
    with layers.Tracer() as tracer:
        momreg.mom_minimax_fit(data, momreg.make_partition(105, 7), momreg.ObjectiveConfig(), cfg)
    summary = tracer.summary()
    assert summary["solver.mom_minimax_fit"]["calls"] == 1
    assert summary["kernels.block_increment"]["calls"] == 2 * 10 * 2
    assert summary["objective.gram_step_size"]["value_min"] > 0
    assert summary["verify.lemma_sweep"]["calls"] == 0
    fit = summary["solver.mom_minimax_fit"]
    total_self = sum(row["self_ms"] for row in summary.values())
    assert fit["self_ms"] < fit["incl_ms"]
    assert total_self == pytest.approx(fit["incl_ms"], rel=1e-9)


def test_absent_layers_are_reported_not_raised():
    specs = (
        layers.Layer("solver.gone", "momreg.solver", "no_such_function"),
        layers.Layer("gone.module", "momreg.no_such_module", "anything"),
        layers.Layer("solver.gone_method", "momreg.solver", "NoSuchClass.method"),
        layers.Layer("solver.erm_fit", "momreg.solver", "erm_fit"),
    )
    with layers.Tracer(specs) as tracer:
        momreg.erm_fit(momreg.Dataset(np.eye(3), np.ones(3)))
    assert tracer.absent == ["solver.gone", "gone.module", "solver.gone_method"]
    summary = tracer.summary()
    assert summary["solver.gone"]["calls"] == 0
    assert summary["solver.erm_fit"]["calls"] == 1


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.per_layer_metric_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_reference_scales_follow_the_slower_of_window_and_bracket():
    ref = run.SpeedReference()
    ref.times = [0.005] * 10 + [0.0025] * 10
    scales = ref.op_scales(0)
    assert len(scales) == 19
    assert scales[0] == pytest.approx(run.REF_MS / 5.0)
    assert scales[9] == pytest.approx(run.REF_MS / 3.75)
    assert scales[-1] == pytest.approx(run.REF_MS / 2.5)
    ref.times = [0.0025] * 10 + [0.01] + [0.0025] * 10  # a slow spell at one end
    assert ref.op_scales(0)[9] == pytest.approx(run.REF_MS / 6.25)
    assert ref.measure() > 0 and len(ref.times) == 22


def test_missing_sources_fail_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mc_corrupt_d5", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
