import ast
import dataclasses
import math
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import momreg
from momreg import (
    AdversaryBudget,
    BlockPartition,
    BlockVector,
    ConditionParams,
    ConfigError,
    CorruptionSpec,
    Dataset,
    DesignSpec,
    DimensionError,
    GridSpec,
    InvalidInput,
    LemmaProbe,
    LinearPredictor,
    MomregError,
    NoiseSpec,
    ObjectiveConfig,
    OddBlockCountRequired,
    ProbeOutOfRegime,
    Regularizer,
    SolverConfig,
    block_increments,
    check_condition_one,
    check_condition_two,
    count_blocks_satisfying,
    erm_fit,
    estimate_delta,
    excess_risk,
    generate,
    lambda_window,
    lasso_fit,
    lemma_reg_check,
    lemma_sweep,
    make_partition,
    med_increment,
    median,
    multiplier_components,
    norming_functional,
    oracle_grid_fit,
    population_l2_distance,
    prox_psi,
    quad_component,
    sample_sphere_probes,
    support_recovery_error,
    theorem1_check,
    theorem2_check,
)


def _imported_public_names() -> set[str]:
    """The public names momreg/__init__.py imports from its submodules."""
    tree = ast.parse(Path(momreg.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_resolves_and_lists_exactly_the_imported_names():
    missing = [name for name in momreg.__all__ if not hasattr(momreg, name)]
    assert missing == []
    assert len(set(momreg.__all__)) == len(momreg.__all__)
    assert set(momreg.__all__) == _imported_public_names()


def _named(node) -> list[str]:
    """The identifiers node's subtree reads, looks up as attributes or imports."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append((sub.asname or sub.name).rsplit(".", 1)[-1])
    return out


def test_every_unexported_definition_is_named_elsewhere_in_the_package():
    """A top-level function or class of a momreg module that momreg does not
    export must be named in the package outside its own definition: code
    that only the tests call belongs in the tests."""
    sources = sorted(Path(momreg.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text()) for path in sources]
    uses = Counter(name for tree in trees for name in _named(tree))
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in momreg.__all__
        and uses[node.name] == _named(node).count(node.name)
    ]
    assert unused == []


# ---------------------------------------------------------------------------
# one validity rule for every count and number the library takes
# ---------------------------------------------------------------------------

# A count argument must reject each of these, a number argument each but
# 2.5, and an array entry NaN and the infinities.
_NOT_COUNTS = (math.nan, math.inf, -math.inf, 2.5, True)
_NOT_NUMBERS = (math.nan, math.inf, -math.inf, True)
_NOT_ENTRIES = (math.nan, math.inf, -math.inf)

_DESIGN = DesignSpec.identity(2)
_ORIGIN = LinearPredictor(np.zeros(2))
_TINY = Dataset(np.eye(3, 2), np.ones(3))
_GRID = GridSpec(((0.0, 1.0, 0.5),) * 2)
_PARAMS = ConditionParams(0.5, 0.1, 1.0)

# Per site: its name (a record's is its class name), a call whose keyword
# defaults are valid, and the bad values of each argument.  estimate_delta
# accepts rho = inf, the overflowing input whose estimate is -inf.
_SITES = [
    ("SolverConfig",
     lambda iterations=5, restarts=2, seed=0, step_f=0.1, step_g=0.1, tolerance=1e-6:
     SolverConfig(step_f, step_g, iterations, restarts, tolerance, seed),
     dict.fromkeys(["iterations", "restarts", "seed"], _NOT_COUNTS)
     | dict.fromkeys(["step_f", "step_g", "tolerance"], _NOT_NUMBERS)),
    ("AdversaryBudget", AdversaryBudget, dict.fromkeys(["restarts", "iterations"], _NOT_COUNTS)),
    ("CorruptionSpec",
     lambda count=1, index=0, magnitude=1e6: CorruptionSpec(count, magnitude=magnitude,
                                                             indices=(index,)),
     {"count": _NOT_COUNTS, "index": _NOT_COUNTS, "magnitude": _NOT_NUMBERS}),
    ("BlockPartition", lambda n=3, m=2: BlockPartition(n, m), dict.fromkeys("nm", _NOT_COUNTS)),
    ("make_partition", lambda N=10, n=3: make_partition(N, n), dict.fromkeys("Nn", _NOT_COUNTS)),
    ("generate", lambda N=10, d=2: generate(N, d, np.zeros(2), _DESIGN, NoiseSpec(), 0),
     dict.fromkeys("Nd", _NOT_COUNTS)),
    ("estimate_delta",
     lambda budget=4, n_centers=2, n_norming=2, rho=1.0, r=1.0: estimate_delta(
         Regularizer.l1(), _ORIGIN, rho, r, _DESIGN, budget, 0, n_centers, n_norming),
     dict.fromkeys(["budget", "n_centers", "n_norming"], _NOT_COUNTS)
     | {"rho": (math.nan, -math.inf, True), "r": _NOT_NUMBERS}),
    ("sample_sphere_probes",
     lambda distance=1.0, count=2: sample_sphere_probes(
         _ORIGIN, _DESIGN, distance, count, np.random.default_rng(0)),
     {"distance": _NOT_NUMBERS, "count": _NOT_COUNTS}),
    ("lemma_sweep", lambda count=0: lemma_sweep(count), {"count": _NOT_COUNTS}),
    ("lasso_fit", lambda lam=0.1, iterations=3: lasso_fit(_TINY, lam, iterations),
     {"lam": (*_NOT_NUMBERS, -1.0), "iterations": _NOT_COUNTS}),
    ("check_condition_one",
     lambda gamma1=0.5, r=1.0, fraction_threshold=0.9: check_condition_one(
         _TINY, BlockPartition(3, 1), _ORIGIN, [[2.0, 0.0]], gamma1, r, _DESIGN,
         fraction_threshold),
     {"gamma1": _NOT_NUMBERS, "r": _NOT_NUMBERS, "fraction_threshold": (*_NOT_NUMBERS, -1.0, 1.5)}),
    ("check_condition_two",
     lambda gamma2=0.2, r=1.0, fraction_threshold=0.9: check_condition_two(
         _TINY, BlockPartition(3, 1), _ORIGIN, [[0.5, 0.0]], gamma2, r, _DESIGN,
         fraction_threshold),
     {"gamma2": _NOT_NUMBERS, "r": _NOT_NUMBERS, "fraction_threshold": (*_NOT_NUMBERS, -1.0, 1.5)}),
    ("NoiseSpec", lambda scale=1.0, dof=3.0: NoiseSpec("student_t", scale, dof),
     dict.fromkeys(["scale", "dof"], _NOT_NUMBERS)),
    ("ConditionParams",
     lambda gamma1=0.5, gamma2=0.1, r=1.0, rho=1.0: ConditionParams(gamma1, gamma2, r, rho),
     dict.fromkeys(["gamma1", "gamma2", "r", "rho"], _NOT_NUMBERS)),
    ("ObjectiveConfig", lambda lam=0.1: ObjectiveConfig(lam, Regularizer.l1()),
     {"lam": _NOT_NUMBERS}),
    ("GridSpec", lambda lo=0.0, hi=1.0, step=0.5: GridSpec(((lo, hi, step),)),
     dict.fromkeys(["lo", "hi", "step"], _NOT_NUMBERS)),
    ("DesignSpec", lambda entry=1.0: DesignSpec([[entry]]), {"entry": _NOT_ENTRIES}),
    ("Regularizer", lambda weight=1.0: Regularizer.slope([weight, weight]),
     {"weight": _NOT_ENTRIES}),
    ("LemmaProbe", lambda alpha=2.0: LemmaProbe(np.zeros(2), "scaled", alpha),
     {"alpha": _NOT_NUMBERS}),
    ("oracle_grid_fit",
     lambda cap=10**8: oracle_grid_fit(_TINY, BlockPartition(3, 1), ObjectiveConfig(), _GRID,
                                       _GRID, cap),
     {"cap": _NOT_COUNTS}),
    ("theorem2_check",
     lambda c1=10.0, c2=10.0, c3=10.0: theorem2_check(
         np.zeros(2), np.zeros(2), _DESIGN, _PARAMS, Regularizer.l1(), c1, c2, c3),
     dict.fromkeys(["c1", "c2", "c3"], (*_NOT_NUMBERS, -1.0))),
    ("support_recovery_error",
     lambda atol=0.1: support_recovery_error(np.zeros(2), np.zeros(2), atol),
     {"atol": (*_NOT_NUMBERS, -1.0)}),
]

# Records the library builds from its own results and never takes as input.
_RESULTS = {
    "ConditionReport", "DeltaEstimate", "LemmaCheckReport", "LemmaViolation", "PhiResult",
    "SolverResult", "Theorem1Diagnostic", "Theorem2Diagnostic",
}


@pytest.mark.parametrize("call", [row[1] for row in _SITES], ids=[row[0] for row in _SITES])
def test_every_site_accepts_its_valid_defaults(call):
    call()


@pytest.mark.parametrize(
    "call, arg, bad",
    [(call, arg, bad) for _, call, args in _SITES for arg, bads in args.items() for bad in bads],
    ids=[f"{site}-{arg}-{bad!r}" for site, _, args in _SITES for arg, bads in args.items()
         for bad in bads],
)
def test_every_count_and_number_is_checked(call, arg, bad):
    with pytest.raises(MomregError):
        call(**{arg: bad})


def test_every_record_with_a_numeric_field_has_a_row():
    """A record that takes a count or a number is checked by the table
    above, so a new one cannot skip the rule; result records check nothing."""
    numeric = {
        name
        for name in momreg.__all__
        if dataclasses.is_dataclass(cls := getattr(momreg, name))
        and any(re.search(r"\b(int|float)\b", str(f.type)) for f in dataclasses.fields(cls))
    }
    assert numeric - _RESULTS <= {row[0] for row in _SITES}
    assert _RESULTS <= numeric
    assert not any(hasattr(getattr(momreg, name), "__post_init__") for name in _RESULTS)


# ---------------------------------------------------------------------------
# every other input check, each raising its own MomregError subclass
# ---------------------------------------------------------------------------

_LINE = LinearPredictor(np.zeros(1))
_RAGGED = [[1.0, 2.0], [1.0]]
_INPUT_CHECKS = [
    ("Dataset-1d-features", lambda: Dataset(np.ones(3), np.ones(3)), DimensionError),
    ("Dataset-2d-responses", lambda: Dataset(np.ones((3, 1)), np.ones((3, 1))), DimensionError),
    ("Dataset-no-rows", lambda: Dataset(np.ones((0, 2)), np.ones(0)), InvalidInput),
    ("LinearPredictor-2d", lambda: LinearPredictor(np.zeros((2, 2))), DimensionError),
    ("BlockPartition-even", lambda: BlockPartition(4, 3), OddBlockCountRequired),
    ("population_l2_distance-predictors",
     lambda: population_l2_distance(_ORIGIN, _LINE, _DESIGN), DimensionError),
    ("population_l2_distance-design",
     lambda: population_l2_distance(_LINE, _LINE, _DESIGN), DimensionError),
    ("Regularizer-kind", lambda: Regularizer("l2"), ConfigError),
    ("Regularizer-empty-slope", lambda: Regularizer.slope([]), ConfigError),
    ("Regularizer-l1-weights", lambda: Regularizer("l1", np.ones(2)), ConfigError),
    ("Regularizer-slope-unsized", lambda: Regularizer.slope(), ConfigError),
    ("BlockVector-2d", lambda: BlockVector(np.zeros((3, 1))), DimensionError),
    ("BlockVector-nan", lambda: BlockVector([0.0, math.nan, 1.0]), InvalidInput),
    ("quad_component-data", lambda: quad_component(_LINE, _LINE, _TINY, BlockPartition(3, 1)),
     DimensionError),
    ("generate-theta-star", lambda: generate(10, 2, np.zeros(3), _DESIGN, NoiseSpec(), 0),
     ConfigError),
    ("generate-design", lambda: generate(10, 3, np.zeros(3), _DESIGN, NoiseSpec(), 0),
     ConfigError),
    ("oracle_grid_fit-grid",
     lambda: oracle_grid_fit(_TINY, BlockPartition(3, 1), ObjectiveConfig(),
                             GridSpec(((0.0, 1.0, 0.5),)), _GRID),
     DimensionError),
    ("excess_risk-shape", lambda: excess_risk(np.zeros(2), np.zeros(3), _DESIGN), DimensionError),
    ("excess_risk-design", lambda: excess_risk(np.zeros(1), np.zeros(1), _DESIGN), DimensionError),
    ("support_recovery_error-shape",
     lambda: support_recovery_error(np.zeros(2), np.zeros(3)), DimensionError),
    ("support_recovery_error-broadcast",
     lambda: support_recovery_error(np.ones(1), np.zeros(3)), DimensionError),
    ("check_condition_one-design",
     lambda: check_condition_one(_TINY, BlockPartition(3, 1), _ORIGIN, [[2.0, 0.0]], 0.5, 1.0,
                                 DesignSpec.identity(3)),
     DimensionError),
    ("sample_sphere_probes-short-predictor",
     lambda: sample_sphere_probes(_LINE, DesignSpec.identity(3), 1.0, 2, np.random.default_rng(0)),
     DimensionError),
    ("sample_sphere_probes-long-predictor",
     lambda: sample_sphere_probes(LinearPredictor(np.ones(3)), _DESIGN, 1.0, 2,
                                  np.random.default_rng(0)),
     DimensionError),
    ("LemmaProbe-regime", lambda: LemmaProbe(np.zeros(2), "sideways"), ConfigError),
    # the 1e-10 ridge vanishes beside a Gram of about 1e40
    ("erm_fit-singular",
     lambda: erm_fit(Dataset(np.outer([1e20, 2e20, 3e20], [1.0, 1.0]), np.arange(3.0))),
     InvalidInput),
    ("excess_risk-nan", lambda: excess_risk([math.nan, 1.0], [1.0, 1.0], _DESIGN), InvalidInput),
    ("theorem1_check-nan",
     lambda: theorem1_check(np.array([math.nan, 1.0]), np.ones(2), _DESIGN, _PARAMS),
     InvalidInput),
    ("theorem2_check-nan",
     lambda: theorem2_check(np.ones(2), [1.0, math.inf], _DESIGN, _PARAMS, Regularizer.l1()),
     InvalidInput),
    ("support_recovery_error-nan",
     lambda: support_recovery_error([math.nan, 1.0], np.ones(2)), InvalidInput),
    ("median-nan", lambda: median([1.0, math.nan, 3.0]), InvalidInput),
    ("count_blocks_satisfying-nan",
     lambda: count_blocks_satisfying([1.0, math.nan, 3.0], 2.0), InvalidInput),
    ("count_blocks_satisfying-nan-threshold",
     lambda: count_blocks_satisfying([1.0, 2.0, 3.0], math.nan), InvalidInput),
    ("count_blocks_satisfying-str-threshold",
     lambda: count_blocks_satisfying([1.0, 2.0, 3.0], "2"), InvalidInput),
    ("count_blocks_satisfying-none-threshold",
     lambda: count_blocks_satisfying([1.0, 2.0, 3.0], None), InvalidInput),
    ("prox_psi-negative-t", lambda: prox_psi(Regularizer.l1(), np.ones(1), -1.0), InvalidInput),
    ("prox_psi-nan-t", lambda: prox_psi(Regularizer.l1(), np.ones(1), math.nan), InvalidInput),
    ("prox_psi-inf-t", lambda: prox_psi(Regularizer.none(), np.ones(1), math.inf), InvalidInput),
    # neither a vector nor a (k, d) stack, which numpy rejects with a raw error
    ("prox_psi-3d", lambda: prox_psi(Regularizer.slope(d=2), np.ones((2, 2, 2)), 0.1),
     DimensionError),
    ("prox_psi-scalar", lambda: prox_psi(Regularizer.slope(d=1), np.float64(1.0), 0.1),
     DimensionError),
    ("norming_functional-scalar",
     lambda: norming_functional(Regularizer.slope(d=1), np.float64(1.0)), DimensionError),
    # ragged or non-numeric arrays, which numpy rejects with a raw ValueError
    ("LinearPredictor-ragged", lambda: LinearPredictor(_RAGGED), InvalidInput),
    ("LinearPredictor-text", lambda: LinearPredictor(["one"]), InvalidInput),
    ("Dataset-ragged", lambda: Dataset(_RAGGED, np.ones(2)), InvalidInput),
    ("DesignSpec-ragged", lambda: DesignSpec(_RAGGED), InvalidInput),
    ("BlockVector-ragged", lambda: BlockVector(_RAGGED), InvalidInput),
    ("median-ragged", lambda: median(_RAGGED), InvalidInput),
    ("Regularizer-slope-ragged", lambda: Regularizer.slope(weights=_RAGGED), ConfigError),
    ("generate-ragged-theta-star",
     lambda: generate(10, 2, _RAGGED, _DESIGN, NoiseSpec(), 0), ConfigError),
    ("excess_risk-ragged", lambda: excess_risk(_RAGGED, np.zeros(2), _DESIGN), InvalidInput),
    ("block_increments-ragged",
     lambda: block_increments(_RAGGED, _ORIGIN, _TINY, BlockPartition(3, 1)), InvalidInput),
    ("multiplier_components-ragged",
     lambda: multiplier_components(_RAGGED, _ORIGIN, _TINY, BlockPartition(3, 1)), InvalidInput),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in _INPUT_CHECKS],
                         ids=[row[0] for row in _INPUT_CHECKS])
def test_every_input_check_raises_its_error(call, error):
    with pytest.raises(error):
        call()


_MESSAGE_CHECKS = [
    ("count_blocks_satisfying-bool-threshold",
     lambda: count_blocks_satisfying([1.0], True), InvalidInput, "not a bool, got True"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in _MESSAGE_CHECKS],
                         ids=[row[0] for row in _MESSAGE_CHECKS])
def test_every_input_check_names_what_it_rejects(call, error, message):
    with pytest.raises(error, match=message):
        call()


# The difference of 1e308 and -1e308 overflows to inf, and inf * 0 inside
# delta' Sigma delta would give NaN; each distance reads +inf, warning-free.
_FAR = np.r_[1e308, 0.0, 0.0]
_BOTH_SIGNS = DesignSpec(np.array([[0.28738689, -0.45391999], [-0.45391999, 1.45825953]]))
_OVERFLOWING_DISTANCES = [
    ("excess_risk", lambda: excess_risk(np.full(3, 1e308), -np.full(3, 1e308),
                                        DesignSpec.identity(3))),
    ("population_l2_distance",
     lambda: population_l2_distance(LinearPredictor(_FAR), LinearPredictor(-_FAR),
                                    DesignSpec.identity(3))),
    # A finite difference whose norm's terms overflow with both signs, which
    # the one-vector product sums to -inf (or NaN), never to a norm near 0.
    ("excess_risk-terms-of-both-signs",
     lambda: excess_risk([1e308, 1e308], [0.0, 0.0], _BOTH_SIGNS)),
    ("population_l2_distance-terms-of-both-signs",
     lambda: population_l2_distance(LinearPredictor([1e308, 1e308]), LinearPredictor([0.0, 0.0]),
                                    _BOTH_SIGNS)),
    ("theorem1_check",
     lambda: theorem1_check(_FAR, -_FAR, DesignSpec.identity(3), _PARAMS).distance),
    ("theorem2_check",
     lambda: theorem2_check(_FAR, -_FAR, DesignSpec.identity(3), _PARAMS,
                            Regularizer.l1()).distance),
]


@pytest.mark.parametrize("call", [row[1] for row in _OVERFLOWING_DISTANCES],
                         ids=[row[0] for row in _OVERFLOWING_DISTANCES])
def test_every_overflowing_distance_reads_inf(call):
    assert call() == math.inf


# f* and a probe whose difference overflows: every check takes its
# statistics under numpy's errstate, so it raises its MomregError and no
# RuntimeWarning comes first.
_HUGE_X = np.random.default_rng(0).standard_normal((45, 3))
_HUGE_DATA = Dataset(_HUGE_X, _HUGE_X @ np.ones(3))
_HUGE_P = make_partition(45, 3)
_HUGE_STAR = LinearPredictor([-1e308, 0.0, 0.0])
_HUGE_PROBE = np.array([1e308, 0.0, 0.0])
_HUGE_PARAMS = ConditionParams(0.5, 0.05, 1.0, 1.0)
_OVERFLOWING_CHECKS = [
    ("check_condition_one",
     lambda: check_condition_one(_HUGE_DATA, _HUGE_P, _HUGE_STAR, [_HUGE_PROBE], 0.5, 1.0,
                                 DesignSpec.identity(3)), InvalidInput),
    ("check_condition_two",
     lambda: check_condition_two(_HUGE_DATA, _HUGE_P, _HUGE_STAR, [_HUGE_PROBE], 0.05, 1.0,
                                 DesignSpec.identity(3)), ProbeOutOfRegime),
    ("block_increments",
     lambda: block_increments([[1e308, 1e308, 0.0]], LinearPredictor(np.zeros(3)), _HUGE_DATA,
                              _HUGE_P), InvalidInput),
    ("multiplier_components",
     lambda: multiplier_components([[1e308, 1e308, 0.0]], LinearPredictor(np.zeros(3)),
                                   _HUGE_DATA, _HUGE_P), InvalidInput),
    ("quad_component",
     lambda: quad_component(LinearPredictor(_HUGE_PROBE), _HUGE_STAR, _HUGE_DATA, _HUGE_P),
     InvalidInput),
    ("med_increment",
     lambda: med_increment(LinearPredictor(_HUGE_PROBE), _HUGE_STAR, _HUGE_DATA, _HUGE_P),
     InvalidInput),
    ("lemma_reg_check",
     lambda: lemma_reg_check([LemmaProbe(_HUGE_PROBE, "far")], _HUGE_STAR, _HUGE_DATA, _HUGE_P,
                             _HUGE_PARAMS, sum(lambda_window(_HUGE_PARAMS)) / 2.0,
                             Regularizer.l1(), DesignSpec.identity(3)), InvalidInput),
    ("sample_sphere_probes",
     lambda: sample_sphere_probes(LinearPredictor([1.7e308, 0.0, 0.0]), DesignSpec.identity(3),
                                  1.7e308, 4, np.random.default_rng(0)), InvalidInput),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in _OVERFLOWING_CHECKS],
                         ids=[row[0] for row in _OVERFLOWING_CHECKS])
def test_every_overflowing_check_raises_without_a_warning(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()
