"""The trimmed hot path of the fit against the forms it replaced, kept here
as references: the descent-ascent loop, the adversary ascent, the batched
residual block losses and the helpers they share.

The trimmed forms reuse one increment buffer, check finiteness once per
iteration, drop rows only when one has stopped and form residuals in
place.  The descent-ascent loop makes the same per-row kernel calls as its
reference, with the same operands in the same order.  The adversary ascent
takes all its running starts' increments from one stacked
``_kernels.block_increments`` call, whose rows are bitwise the per-row
kernel's, so every comparison is exact.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momreg import (
    CorruptionSpec,
    DesignSpec,
    DivergenceError,
    NoiseSpec,
    ObjectiveConfig,
    Regularizer,
    corrupt,
    generate,
    make_partition,
)
from momreg import _kernels, objective, solver
from momreg.objective import gram_step_size, prox_psi, psi, psi_batch


def _row_increments_ref(S, b, thetas_f, thetas_h):
    out = np.empty((thetas_h.shape[0], b.shape[0]))
    for k, (f, h) in enumerate(zip(thetas_f, thetas_h)):
        out[k] = _kernels.block_increment(S, b, f, h)
    return out


def _median_block_index_ref(inc):
    mid = inc.shape[1] // 2
    med = np.partition(inc, mid, axis=1)[:, mid]
    return (inc == med[:, None]).argmax(axis=1), med


def _prox_gradient_step_ref(reg, S, b, thetas, j, step, lam):
    out = thetas - step * (2.0 * ((S[j] @ thetas[:, :, None])[:, :, 0] - b[j]))
    if lam:
        out = prox_psi(reg, out, step * lam)
    return out


@np.errstate(over="ignore", invalid="ignore")
def _descent_ascent_ref(S, b, starts, reg, lam, step_f, step_g, iterations, warm):
    R, d = starts.shape
    iterates = np.empty((2, R, iterations + 1, d))
    iterates[:, :, 0] = starts
    median_block = np.empty((R, iterations), dtype=np.intp)
    med_increment = np.empty((R, iterations))
    f = g = starts
    for t in range(1, iterations + 1):
        damp = 1.0 if t <= warm else math.sqrt(t - warm)
        inc = _row_increments_ref(S, b, f, g)
        if not np.isfinite(inc).all():
            raise DivergenceError(
                "block increments became non-finite; reduce step_f/step_g"
            )
        j_adv, med = _median_block_index_ref(inc)
        g = _prox_gradient_step_ref(reg, S, b, g, j_adv, step_g / damp, lam)
        j_lrn, _ = _median_block_index_ref(_row_increments_ref(S, b, f, g))
        f = _prox_gradient_step_ref(reg, S, b, f, j_lrn, step_f / damp, lam)
        if not (np.isfinite(f).all() and np.isfinite(g).all()):
            raise DivergenceError(
                "iterate became non-finite; reduce step_f/step_g"
            )
        iterates[0, :, t] = f
        iterates[1, :, t] = g
        median_block[:, t - 1] = j_adv
        med_increment[:, t - 1] = med
    return iterates, median_block, med_increment


@np.errstate(over="ignore", invalid="ignore")
def _ascend_adversary_ref(
    S, b, theta_f, starts, lam, reg, psi_f, step, iterations, collect
):
    R, d = starts.shape
    g = starts.copy()
    best_value = np.full(R, -math.inf)
    best_g = starts.copy()
    explored = np.empty((R, iterations + 1, d)) if collect else None
    counts = np.zeros(R, dtype=np.intp)
    rows = np.arange(R)
    for t in range(iterations + 1):
        inc = _row_increments_ref(S, b, np.broadcast_to(theta_f, (rows.size, d)), g[rows])
        finite = np.isfinite(inc).all(axis=1)
        rows, inc = rows[finite], inc[finite]
        if rows.size == 0:
            break
        gr = g[rows]
        j_star, med = _median_block_index_ref(inc)
        value = med + (lam * (psi_f - psi_batch(reg, gr)) if lam else 0.0)
        better = value > best_value[rows]
        best_value[rows[better]] = value[better]
        best_g[rows[better]] = gr[better]
        if collect:
            explored[rows, t] = gr
            counts[rows] = t + 1
        if t == iterations:
            break
        s = step / math.sqrt(t + 1.0)
        g[rows] = _prox_gradient_step_ref(reg, S, b, gr, j_star, s, lam)
    return best_value, best_g, (explored, counts)


def _block_losses_ref(X, y, thetas, n, m):
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.empty((thetas.shape[0], n))
    for lo in range(0, thetas.shape[0], _kernels._CHUNK):
        chunk = thetas[lo : lo + _kernels._CHUNK]
        resid = chunk @ X.T - y
        out[lo : lo + chunk.shape[0]] = np.square(resid).reshape(-1, n, m).mean(axis=2)
    return out


_KINDS = ("l1", "none", "slope")


def _objective(kind, d=4):
    return {
        "none": ObjectiveConfig(),
        "l1": ObjectiveConfig(0.05, Regularizer.l1()),
        "slope": ObjectiveConfig(0.02, Regularizer.slope(d=d)),
    }[kind]


def _statistics(seed, N=315, n=15, d=4, count=6, magnitude=1e4):
    theta_star = np.resize([1.0, -0.5, 0.0, 2.0], d)
    data = generate(N, d, theta_star, DesignSpec.identity(d), NoiseSpec("gaussian", 1.0), seed)
    bad, _ = corrupt(data, CorruptionSpec(count=count, magnitude=magnitude), seed + 100)
    p = make_partition(N, n)
    X, y = bad.features[: p.total], bad.responses[: p.total]
    S, b = _kernels.block_stats(X, y, p.n, p.m)
    return X, y, S, b, p


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, w in zip(got, want):
        np.testing.assert_array_equal(a, w)
        assert a.dtype == w.dtype


@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("kind", _KINDS)
def test_descent_ascent_matches_reference(kind, restarts):
    obj = _objective(kind)
    for seed in (30, 31):
        X, y, S, b, p = _statistics(seed)
        starts = np.random.default_rng(seed).standard_normal((restarts, 4))
        step = gram_step_size(X, p.m)
        args = (S, b, starts, obj.regularizer, obj.lam, step, 0.8 * step, 60, 20)
        _assert_same(solver._descent_ascent(*args), _descent_ascent_ref(*args))


@pytest.mark.parametrize(
    "start,step,message",
    [
        # the starts are so large that the first adversary step's increments overflow
        (1e150, 1.0, "block increments became non-finite; reduce step_f/step_g"),
        # the iterates grow for some iterations before their increments overflow
        (1.0, 1e10, "block increments became non-finite; reduce step_f/step_g"),
        # the first adversary step overflows
        (1.0, 1e307, "iterate became non-finite; reduce step_f/step_g"),
    ],
)
@pytest.mark.parametrize("kind", _KINDS)
def test_descent_ascent_diverges_with_the_reference_message(kind, start, step, message):
    obj = _objective(kind)
    X, y, S, b, p = _statistics(32)
    starts = np.full((2, 4), start)
    starts[1, 0] = -start
    args = (S, b, starts, obj.regularizer, obj.lam, step, step, 40, 40)
    with pytest.raises(DivergenceError) as want:
        _descent_ascent_ref(*args)
    with pytest.raises(DivergenceError) as got:
        solver._descent_ascent(*args)
    assert str(got.value) == str(want.value) == message


def _starts(theta_f, d):
    return np.array([
        theta_f,
        np.full(d, 0.5),
        np.r_[1e200, np.zeros(d - 1)],  # increments overflow at the start itself
        np.r_[1e140, 1e140, np.zeros(d - 2)],  # finite at the start, overflows later
        -np.arange(d, dtype=np.float64),
    ])


@st.composite
def _increment_stacks(draw):
    """Block statistics and an (R, d) stack of h against one f or a stack of
    them, at scales 1e-3 to 1e5; some rows carry a 1e140 or 1e200 entry,
    whose increments overflow at once or only in the products."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 60))
    n = 2 * draw(st.integers(0, 50)) + 1
    R = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    X = rng.standard_normal((n * m, d)) * 10.0 ** draw(st.integers(-3, 5))
    y = rng.standard_normal(n * m) * 10.0 ** draw(st.integers(-3, 5))
    S, b = _kernels.block_stats(X, y, n, m)
    scales = 10.0 ** rng.integers(-3, 6, (R, 1))
    thetas_h = rng.standard_normal((R, d)) * scales
    shape = draw(st.sampled_from([(d,), (R, d)]))
    theta_f = rng.standard_normal(shape) * (scales if len(shape) == 2 else scales[0])
    for k in draw(st.lists(st.integers(0, R - 1), max_size=3)):
        thetas_h[k, rng.integers(d)] = draw(st.sampled_from([1e140, -1e140, 1e200]))
    return S, b, theta_f, thetas_h


@given(_increment_stacks())
@settings(max_examples=200, deadline=None)
def test_block_increments_rows_are_the_per_row_kernel(instance):
    S, b, theta_f, thetas_h = instance
    thetas_f = np.broadcast_to(theta_f, thetas_h.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _kernels.block_increments(S, b, theta_f, thetas_h)
        want = _row_increments_ref(S, b, thetas_f, thetas_h)
    assert got.shape == want.shape
    # NaN counts as equal to NaN, so the non-finite patterns match too.
    np.testing.assert_array_equal(got, want)


def _assert_ascent_matches_reference(kind, S, b, theta_f, starts, step, iterations, collect):
    """Run the ascent and its reference on the same inputs, assert every
    output equal, and return the explored counts."""
    obj = _objective(kind, theta_f.shape[0])
    psi_f = psi(obj.regularizer, theta_f) if obj.lam else 0.0
    args = (S, b, theta_f, starts, obj.lam, obj.regularizer, psi_f, step, iterations, collect)
    values, gs, (explored, counts) = objective._ascend_adversary(*args)
    ref_values, ref_gs, (ref_explored, ref_counts) = _ascend_adversary_ref(*args)
    np.testing.assert_array_equal(values, ref_values)
    np.testing.assert_array_equal(gs, ref_gs)
    np.testing.assert_array_equal(counts, ref_counts)
    if collect:
        for k, count in enumerate(counts):
            np.testing.assert_array_equal(explored[k, :count], ref_explored[k, :count])
    else:
        assert explored is None and ref_explored is None
    return counts


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("kind", _KINDS)
def test_ascend_adversary_matches_reference(kind, collect):
    X, y, S, b, p = _statistics(33)
    theta_f = np.array([0.9, -0.4, 0.1, 1.8])
    step = 50.0 * gram_step_size(X, p.m)  # large enough to blow up some starts
    counts = _assert_ascent_matches_reference(
        kind, S, b, theta_f, _starts(theta_f, 4), step, 30, collect
    )
    if collect:
        assert counts[0] == 31 and counts[2] == 0 and 0 < counts[3] < 31


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("d, N, n, count", [(1, 300, 15, 3), (50, 1020, 51, 10)])
def test_ascend_adversary_matches_reference_in_certificate_regime(d, N, n, count, kind, collect):
    # The phi_hat certificate of an oracle instance (d=1, N=300, n=15, 3 rows
    # at 1e6), and the same at d=50: starts at f, the least-squares fit and
    # two perturbations of it, 120 iterations at the Gram step.
    X, y, S, b, p = _statistics(36 + d, N, n, d, count, 1e6)
    rng = np.random.default_rng(d)
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    scale = np.linalg.norm(y - X @ ols) / math.sqrt(N)
    theta_f = np.resize([1.0, -0.5, 0.0, 2.0], d) + 0.05 * rng.standard_normal(d)
    starts = np.array([theta_f, ols, *(ols + scale * rng.standard_normal((2, d)))])
    counts = _assert_ascent_matches_reference(
        kind, S, b, theta_f, starts, gram_step_size(X, p.m), 120, collect
    )
    if collect:
        assert np.all(counts == 121)


def test_ascend_adversary_stops_when_every_start_overflows():
    X, y, S, b, p = _statistics(34)
    theta_f = np.zeros(4)
    starts = np.array([np.r_[1e200, np.zeros(3)], np.r_[0.0, -1e200, 0.0, 0.0]])
    args = (S, b, theta_f, starts, 0.0, Regularizer.none(), 0.0, 0.01, 10, True)
    values, gs, (_, counts) = objective._ascend_adversary(*args)
    ref_values, ref_gs, (_, ref_counts) = _ascend_adversary_ref(*args)
    np.testing.assert_array_equal(values, ref_values)
    np.testing.assert_array_equal(gs, ref_gs)
    np.testing.assert_array_equal(counts, ref_counts)
    assert np.all(values == -math.inf) and np.all(counts == 0)


def test_block_losses_match_reference_across_chunks():
    rng = np.random.default_rng(13)
    n, m, d = 9, 7, 3
    X = rng.standard_normal((n * m, d))
    y = X @ rng.standard_normal(d) + rng.standard_normal(n * m)
    y[:4] = 1e6
    thetas = rng.standard_normal((2 * _kernels._CHUNK + 5, d)) * 10.0 ** rng.integers(-3, 4, (1, d))
    np.testing.assert_array_equal(
        _kernels.block_losses(X, y, thetas, n, m), _block_losses_ref(X, y, thetas, n, m)
    )
    for theta in thetas[:5, None]:
        np.testing.assert_array_equal(
            _kernels.block_losses(X, y, theta, n, m), _block_losses_ref(X, y, theta, n, m)
        )


def test_median_block_index_and_step_match_reference():
    X, y, S, b, p = _statistics(35)
    rng = np.random.default_rng(35)
    inc = rng.standard_normal((6, p.n))
    inc[1] = 0.0  # every block ties
    inc[2, ::3] = inc[2, p.n // 2]  # the median value sits in several blocks
    inc[3] = -0.0
    _assert_same(objective.median_block_index(inc), _median_block_index_ref(inc))
    thetas = rng.standard_normal((6, 4))
    j = rng.integers(0, p.n, 6)
    for obj in map(_objective, _KINDS):
        np.testing.assert_array_equal(
            objective.prox_gradient_step(obj.regularizer, S, b, thetas, j, 0.03, obj.lam),
            _prox_gradient_step_ref(obj.regularizer, S, b, thetas, j, 0.03, obj.lam),
        )
