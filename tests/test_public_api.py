import ast
import dataclasses
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import momreg
from momreg import (
    AdversaryBudget,
    BlockPartition,
    ConditionParams,
    CorruptionSpec,
    Dataset,
    DesignSpec,
    GridSpec,
    LemmaProbe,
    LinearPredictor,
    MomregError,
    NoiseSpec,
    ObjectiveConfig,
    Regularizer,
    SolverConfig,
    estimate_delta,
    generate,
    lasso_fit,
    lemma_sweep,
    make_partition,
    sample_sphere_probes,
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
    ("lasso_fit",
     lambda iterations=3: lasso_fit(Dataset(np.eye(3, 2), np.ones(3)), 0.1, iterations),
     {"iterations": _NOT_COUNTS}),
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
