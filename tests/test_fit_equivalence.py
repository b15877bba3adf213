"""The trimmed hot path of the fit against the forms it replaced, kept here
as references: the descent-ascent loop, the adversary ascent, the batched
residual block losses and the helpers they share, and the audit's block
losses from the block statistics against the residual ones.

The trimmed forms reuse buffers, check finiteness by a sum first, drop
rows only when one has stopped and form residuals in place.  The
descent-ascent loop makes the same per-row kernel calls as its reference,
with the same operands in the same order, writing the increments, their
partitioned copy and the iterates into buffers allocated once per run.
The adversary ascent takes all its running starts' increments from one
stacked ``_kernels.block_increments`` call, whose rows are bitwise the
per-row kernel's, and picks each start's best after the loop from the
values it recorded, where its reference keeps a running best.  Every comparison is
exact but one, and the ascent's compares bytes, the sign of a zero
included.  The one: the statistics losses, which omit each block's
y_j^T y_j / m, match the residual losses less that constant within a
stated tolerance.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momreg import (
    CorruptionSpec,
    Dataset,
    DesignSpec,
    DivergenceError,
    LinearPredictor,
    NoiseSpec,
    ObjectiveConfig,
    Regularizer,
    SolverConfig,
    corrupt,
    generate,
    make_partition,
    mom_minimax_fit,
)
from momreg import _kernels, blocks, objective, solver
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


def _statistics_descent_ascent(S, b, *args):
    """``solver._descent_ascent`` on the increments source of every fit at
    d <= m, the block statistics: the loop its reference reproduces."""
    return solver._descent_ascent(S, b, *args, solver._StatisticsIncrements(S, b))


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
        _assert_same(_statistics_descent_ascent(*args), _descent_ascent_ref(*args))


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
        _statistics_descent_ascent(*args)
    assert str(got.value) == str(want.value) == message


@st.composite
def _descents(draw):
    """Block statistics, 1 to 3 starts and the steps and length of a short
    descent-ascent run, at scales 1e-3 to 1e5 and 1e-3 to 100 times the
    Gram step.  Some starts carry an entry of 1e148 to 1e156, whose
    increments overflow after a few steps, or of 1e305 to 8e307, which the
    first step may take past the largest float."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    R = draw(st.integers(1, 3))
    n = 2 * draw(st.integers(1, 10)) + 1
    m = draw(st.integers(1, 6))
    X = rng.standard_normal((n * m, d)) * 10.0 ** draw(st.integers(-3, 5))
    y = rng.standard_normal(n * m) * 10.0 ** draw(st.integers(-3, 5))
    S, b = _kernels.block_stats(X, y, n, m)
    starts = rng.standard_normal((R, d)) * 10.0 ** rng.integers(-3, 6, (R, 1))
    for k in np.flatnonzero(rng.random(R) < draw(st.sampled_from([0.0, 0.3]))):
        lo, hi = ((148.0, 156.0), (305.0, 307.9))[rng.integers(2)]
        starts[k, rng.integers(d)] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)
    step_f, step_g = 10.0 ** rng.uniform(-3.0, 2.0, 2) * gram_step_size(X, m)
    iterations = draw(st.integers(1, 8))
    return S, b, starts, step_f, step_g, iterations, draw(st.integers(0, iterations))


def _outcome(loop, args):
    """The loop's outputs, or the exception it raised."""
    try:
        return loop(*args)
    except Exception as exc:
        return exc


@given(_descents(), st.sampled_from(_KINDS))
@settings(max_examples=200, deadline=None)
def test_descent_ascent_matches_reference_property(instance, kind):
    S, b, starts, step_f, step_g, iterations, warm = instance
    obj = _objective(kind, starts.shape[1])
    args = (S, b, starts, obj.regularizer, obj.lam, step_f, step_g, iterations, warm)
    got, want = _outcome(_statistics_descent_ascent, args), _outcome(_descent_ascent_ref, args)
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        _assert_same(got, want)


def _unit_statistics(n, s_value, b_values):
    """d=1 block statistics S_j = s_value[j], b_j = b_values[j]."""
    S = np.broadcast_to(np.asarray(s_value, dtype=np.float64), (n,))[:, None, None].copy()
    return S, np.broadcast_to(np.asarray(b_values, dtype=np.float64), (n,))[:, None].copy()


def test_descent_ascent_runs_on_when_a_finite_sum_overflows():
    # Increments near -1e308 at the start of iteration 2, each finite, whose
    # sum overflows.
    S, b = _unit_statistics(15, 1.0, np.linspace(-1.0, 1.0, 15) * 6e153)
    args = (S, b, np.zeros((2, 1)), Regularizer.none(), 0.0, 0.25, 0.25, 4, 4)
    iterates, _, _ = _descent_ascent_ref(*args)
    with np.errstate(over="ignore"):
        inc = _row_increments_ref(S, b, iterates[0, :, 1], iterates[1, :, 1])
        assert np.isfinite(inc).all() and not np.isfinite(inc.sum())
    _assert_same(_statistics_descent_ascent(*args), _descent_ascent_ref(*args))
    # Iterates near 9e307 at every iteration, each finite, whose sum
    # overflows; f == g keeps every increment exactly 0.
    S, b = _unit_statistics(5, 1.0, 0.0)
    args = (S, b, np.array([[8.9e307], [8.8e307]]), Regularizer.none(), 0.0, 0.01, 0.01, 5, 5)
    iterates, _, med_increment = _descent_ascent_ref(*args)
    with np.errstate(over="ignore"):
        assert np.isfinite(iterates).all() and not np.isfinite(iterates[:, :, 5].sum())
    assert np.all(med_increment == 0.0)
    _assert_same(_statistics_descent_ascent(*args), _descent_ascent_ref(*args))


@pytest.mark.parametrize(
    "s_value, b_values, start, step_f, step_g, iteration, message",
    [
        # S_3 is NaN: block 3's increment is NaN from the start, the rest 0.
        (
            np.where(np.arange(15) == 3, math.nan, 1.0), 0.0, 1.0, 0.1, 0.1, 1,
            "block increments became non-finite; reduce step_f/step_g",
        ),
        # S_3 is 1e300: as the iterates grow, block 3's increment alone
        # overflows.
        (
            np.where(np.arange(15) == 3, 1e300, 1.0), np.linspace(-1.0, 1.0, 15), 1.0, 5.0, 5.0, 6,
            "block increments became non-finite; reduce step_f/step_g",
        ),
        # S = 0 and b = 0.1: g moves by 2e307 an iteration and overflows
        # alone; the increments -0.2 (f - g) stay finite until then.
        (0.0, 0.1, 0.0, 1.0, 1e308, 9, "iterate became non-finite; reduce step_f/step_g"),
    ],
)
def test_descent_ascent_raises_at_the_reference_iteration(
    s_value, b_values, start, step_f, step_g, iteration, message
):
    S, b = _unit_statistics(15, s_value, b_values)
    for loop in (_statistics_descent_ascent, _descent_ascent_ref):
        args = (S, b, np.full((1, 1), start), Regularizer.none(), 0.0, step_f, step_g)
        loop(*args, iteration - 1, iteration - 1)
        with pytest.raises(DivergenceError) as raised:
            loop(*args, iteration, iteration)
        assert str(raised.value) == message


@pytest.mark.parametrize("d", [1, 5, 50])
def test_block_increment_into_a_buffer_row_is_the_allocating_call(d):
    X, y, S, b, p = _statistics(41 + d, N=1020, n=51, d=d)
    rng = np.random.default_rng(d)
    thetas = rng.standard_normal((2, 3, d)) * 10.0 ** rng.integers(-3, 6, (2, 3, 1))
    buffer = np.full((3, p.n), math.nan)
    for f, h, row in zip(*thetas, buffer):
        assert _kernels.block_increment(S, b, f, h, out=row) is row
        _assert_same_bytes(row, _kernels.block_increment(S, b, f, h))


def test_a_second_fit_leaves_the_first_result_unchanged():
    X, y, S, b, p = _statistics(42, N=315, n=15)
    cfg = SolverConfig(iterations=30, restarts=3)
    first = mom_minimax_fit(Dataset(X, y), p, _objective("l1"), cfg)
    kept = [first.theta_hat.copy(), *(a.copy() for a in vars(first.trace).values())]
    for seed in (42, 43):
        X2, y2, _, _, _ = _statistics(seed, N=315, n=15)
        mom_minimax_fit(Dataset(X2, y2), p, _objective("l1"), cfg)
    _assert_same([first.theta_hat, *vars(first.trace).values()], kept)


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


@st.composite
def _loss_stacks(draw):
    """A design and responses at scales 1e-3 to 1e3, with up to three
    responses and up to three design rows set to 1e6, their block
    statistics, and a (k, d) stack of thetas at scales 1e-3 to 1e3, up to
    three of its rows zero with a -0.0 in each."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    n = 2 * draw(st.integers(0, 25)) + 1
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 40))
    X = rng.standard_normal((n * m, d)) * 10.0 ** draw(st.integers(-3, 3))
    y = X @ rng.standard_normal(d) + rng.standard_normal(n * m) * 10.0 ** draw(st.integers(-3, 3))
    y[rng.choice(n * m, draw(st.integers(0, min(3, n * m))), replace=False)] = 1e6
    X[rng.choice(n * m, draw(st.integers(0, min(3, n * m))), replace=False)] = 1e6
    S, b = _kernels.block_stats(X, y, n, m)
    thetas = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-3, 4, (k, 1))
    zero = rng.choice(k, draw(st.integers(0, min(3, k))), replace=False)
    thetas[zero] = np.where(rng.random((zero.size, d)) < 0.5, -0.0, 0.0)
    thetas[zero, 0] = -0.0
    return X, y, S, b, thetas


def _stats_block_losses_ref(S, b, thetas):
    """theta^T S_j theta - 2 b_j^T theta formed from theta itself: the
    increments against zero must match it bit for bit, although their
    theta + 0.0 turns a -0.0 entry into +0.0."""
    k, d = thetas.shape
    col = thetas[:, :, None]
    s_theta = np.matmul(S.reshape(-1, d), col).reshape(k, *b.shape)
    loss = np.matmul(s_theta, col)
    loss -= 2.0 * np.matmul(b, col)
    return loss[:, :, 0]


# Bound on |statistics loss - (residual loss - mean y^2)| relative to the
# block means of (|X| |theta|)^2 + y^2, the size of the terms that cancel
# in either form: both round at a few eps times that.
_LOSS_RTOL = 1e-11


@given(_loss_stacks())
@settings(max_examples=200, deadline=None)
def test_increments_against_zero_are_the_residual_losses_less_the_response_norm(instance):
    X, y, S, b, thetas = instance
    n, m = b.shape[0], X.shape[0] // b.shape[0]
    got = _kernels.block_increments(S, b, thetas, 0.0)
    y2 = _kernels.block_means(y * y, n, m)
    want = _kernels.block_losses(X, y, thetas, n, m) - y2
    scale = _kernels.block_means(np.square(np.abs(thetas) @ np.abs(X).T), n, m) + y2
    assert got.shape == want.shape == (thetas.shape[0], n)
    assert np.all(np.abs(got - want) <= _LOSS_RTOL * scale)


@given(_loss_stacks(), st.lists(st.integers(1, 40), max_size=4))
@settings(max_examples=200, deadline=None)
def test_increments_against_zero_rows_are_the_single_theta_call(instance, cuts):
    _, _, S, b, thetas = instance
    got = _kernels.block_increments(S, b, thetas, 0.0)
    _assert_same_bytes(got, _stats_block_losses_ref(S, b, thetas))  # zero rows' signs too
    for theta, row in zip(thetas, got):
        _assert_same_bytes(_kernels.block_increments(S, b, theta[None], 0.0)[0], row)
    # cut into slices of any sizes, the batch has the same bytes
    edges = [0, *sorted(c % thetas.shape[0] for c in cuts), thetas.shape[0]]
    pieces = [
        _kernels.block_increments(S, b, thetas[lo:hi], 0.0) for lo, hi in zip(edges, edges[1:])
    ]
    _assert_same_bytes(np.concatenate(pieces), got)


@pytest.mark.parametrize("d, m", [(3, 2), (3, 3), (5, 19), (50, 19)])
def test_audit_losses_take_the_statistics_where_d_is_at_most_m(d, m, monkeypatch):
    rng = np.random.default_rng(d + m)
    n = 7
    X = rng.standard_normal((n * m, d))
    y = X @ rng.standard_normal(d) + rng.standard_normal(n * m)
    y[:2] = 1e6
    S, b = _kernels.block_stats(X, y, n, m)
    p = make_partition(n * m, n)
    thetas = rng.standard_normal((300, d))
    strided = np.repeat(thetas, 2, axis=1)[:, ::2]
    got = solver._audit_losses(X, y, S, b, strided, p)
    if d > m:
        _assert_same_bytes(got, _kernels.block_losses(X, y, thetas, n, m))
    else:
        _assert_same_bytes(got, _kernels.block_increments(S, b, thetas, 0.0))
        # one theta per slice of the temporary budget gives the same bytes
        monkeypatch.setattr(blocks, "TEMP_ENTRIES", 1)
        _assert_same_bytes(solver._audit_losses(X, y, S, b, thetas, p), got)


def _assert_same_bytes(got, want):
    # assert_array_equal holds -0.0 and +0.0 equal; the bytes tell them apart.
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_ascent_matches_reference(
    kind, S, b, theta_f, starts, step, iterations, collect, psi_f=None
):
    """Run the ascent and its reference on the same inputs, assert every
    output the same bytes, and return the outputs."""
    obj = _objective(kind, theta_f.shape[0])
    if psi_f is None:
        psi_f = psi(obj.regularizer, theta_f) if obj.lam else 0.0
    args = (S, b, theta_f, starts, obj.lam, obj.regularizer, psi_f, step, iterations)
    values, gs, (explored, counts) = objective._ascend_adversary(*args)
    ref_values, ref_gs, (ref_explored, ref_counts) = _ascend_adversary_ref(*args, collect)
    _assert_same_bytes(values, ref_values)
    _assert_same_bytes(gs, ref_gs)
    _assert_same_bytes(counts, ref_counts)
    if collect:
        for k, count in enumerate(counts):
            _assert_same_bytes(explored[k, :count], ref_explored[k, :count])
    return values, gs, counts


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("kind", _KINDS)
def test_ascend_adversary_matches_reference(kind, collect):
    X, y, S, b, p = _statistics(33)
    theta_f = np.array([0.9, -0.4, 0.1, 1.8])
    step = 50.0 * gram_step_size(X, p.m)  # large enough to blow up some starts
    _, _, counts = _assert_ascent_matches_reference(
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
    _, _, counts = _assert_ascent_matches_reference(
        kind, S, b, theta_f, starts, gram_step_size(X, p.m), 120, collect
    )
    if collect:
        assert np.all(counts == 121)


@pytest.mark.parametrize("kind", _KINDS)
def test_ascend_adversary_ties_go_to_the_earliest_iterate(kind):
    # At step 0 no start moves, so every iterate's value ties with its
    # start's, and the start at f scores exactly +0.0.
    X, y, S, b, p = _statistics(38)
    theta_f = np.array([0.9, -0.4, 0.1, 1.8])
    starts = _starts(theta_f, 4)[[0, 1, 4]]
    values, gs, counts = _assert_ascent_matches_reference(kind, S, b, theta_f, starts, 0.0, 12, True)
    _assert_same_bytes(gs, starts)
    assert np.all(counts == 13)
    _assert_same_bytes(values[:1], np.zeros(1))


@pytest.mark.parametrize("kind", ("l1", "slope"))
def test_ascend_adversary_keeps_each_start_when_every_value_is_nan(kind):
    X, y, S, b, p = _statistics(37)
    theta_f = np.array([0.9, -0.4, 0.1, 1.8])
    starts = _starts(theta_f, 4)
    values, gs, counts = _assert_ascent_matches_reference(
        kind, S, b, theta_f, starts, gram_step_size(X, p.m), 20, True, psi_f=math.nan
    )
    assert np.all(values == -math.inf)
    _assert_same_bytes(gs, starts)
    assert counts[0] == 21 and counts[2] == 0


@st.composite
def _ascents(draw):
    """Block statistics, f and an (R, d) stack of starts (f first) for an
    ascent of 0 to 40 iterations at 1e-3 to 100 times the Gram step.  Some
    starts carry an entry of 1e148 to 1e156, which large steps grow until
    its increments overflow, so rows stop at different iterations."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    R = draw(st.integers(1, 6))
    n = 2 * draw(st.integers(1, 10)) + 1
    m = draw(st.integers(1, 6))
    X = rng.standard_normal((n * m, d))
    y = X @ rng.standard_normal(d) + rng.standard_normal(n * m)
    y[rng.integers(n * m, size=draw(st.integers(0, 3)))] = 1e6
    S, b = _kernels.block_stats(X, y, n, m)
    theta_f = rng.standard_normal(d)
    starts = theta_f + rng.standard_normal((R, d)) * 10.0 ** rng.integers(-2, 3, (R, 1))
    starts[0] = theta_f
    for k in np.flatnonzero(rng.random(R) < 0.5):
        starts[k, rng.integers(d)] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(148.0, 156.0)
    step = 10.0 ** rng.uniform(-3.0, 2.0) * gram_step_size(X, m)
    return S, b, theta_f, starts, step, int(rng.integers(41))


@given(_ascents(), st.sampled_from(_KINDS), st.booleans())
@settings(max_examples=300, deadline=None)
def test_ascend_adversary_matches_reference_property(instance, kind, collect):
    S, b, theta_f, starts, step, iterations = instance
    _assert_ascent_matches_reference(kind, S, b, theta_f, starts, step, iterations, collect)


def test_ascend_adversary_runs_rows_whose_increment_sum_overflows():
    # |x| = 1 makes every S_j 1: a start at 1e154 has increments near
    # -1e308, each finite, whose sum overflows.
    rng = np.random.default_rng(39)
    X = rng.choice([-1.0, 1.0], (45, 1))
    S, b = _kernels.block_stats(X, 2.0 * X[:, 0] + rng.standard_normal(45), 15, 3)
    theta_f = np.array([1.0])
    starts = np.array([theta_f, [1e154], [-1.2e154]])
    inc = _kernels.block_increments(S, b, theta_f, starts)
    with np.errstate(over="ignore"):
        assert np.isfinite(inc).all() and not np.isfinite(inc.sum())
    step = gram_step_size(X, 3)
    _, _, counts = _assert_ascent_matches_reference("none", S, b, theta_f, starts, step, 10, True)
    assert np.all(counts == 11)


@pytest.mark.parametrize("kind,psi_f", [("none", 0.0), ("l1", -0.0)])
def test_ascend_adversary_keeps_the_reference_sign_of_zero(kind, psi_f, monkeypatch):
    # The block kernel gives no -0.0 median here, so both medians are made
    # -0.0.  Without regularization the value is the median plus 0.0, so
    # +0.0; with it, -0.0 + lam * (psi_f - psi(0)) stays -0.0 when psi_f is
    # -0.0.
    def negative_zero(median):
        def patched(inc, *scratch):
            j, med = median(inc, *scratch)
            return j, np.full_like(med, -0.0)
        return patched

    monkeypatch.setattr(objective, "median_block_index", negative_zero(objective.median_block_index))
    monkeypatch.setattr(
        sys.modules[__name__], "_median_block_index_ref", negative_zero(_median_block_index_ref)
    )
    X, y, S, b, p = _statistics(40)
    starts = np.zeros((2, 4))
    values, _, _ = _assert_ascent_matches_reference(
        kind, S, b, np.zeros(4), starts, 0.0, 3, False, psi_f=psi_f
    )
    assert np.all(np.signbit(values) == (kind == "l1"))


def test_ascend_adversary_stops_when_every_start_overflows():
    X, y, S, b, p = _statistics(34)
    theta_f = np.zeros(4)
    starts = np.array([np.r_[1e200, np.zeros(3)], np.r_[0.0, -1e200, 0.0, 0.0]])
    args = (S, b, theta_f, starts, 0.0, Regularizer.none(), 0.0, 0.01, 10)
    values, gs, (_, counts) = objective._ascend_adversary(*args)
    ref_values, ref_gs, (_, ref_counts) = _ascend_adversary_ref(*args, True)
    _assert_same_bytes(values, ref_values)
    _assert_same_bytes(gs, ref_gs)
    _assert_same_bytes(counts, ref_counts)
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
    scratch = np.empty_like(inc)
    _assert_same(objective.median_block_index(inc, scratch), _median_block_index_ref(inc))
    thetas = rng.standard_normal((6, 4))
    j = rng.integers(0, p.n, 6)
    for obj in map(_objective, _KINDS):
        out = np.empty_like(thetas)
        np.testing.assert_array_equal(
            objective.prox_gradient_step(obj.regularizer, S, b, thetas, j, 0.03, obj.lam, out),
            _prox_gradient_step_ref(obj.regularizer, S, b, thetas, j, 0.03, obj.lam),
        )


# ---------------------------------------------------------------------------
# the product source of the descent-ascent's increments, at d > m
# ---------------------------------------------------------------------------

_DIVERGENCE_MESSAGES = (
    "block increments became non-finite; reduce step_f/step_g",
    "iterate became non-finite; reduce step_f/step_g",
)


@st.composite
def _wide_descents(draw):
    """``_descents`` at d > m: a design of d = m + 1 to m + 8 columns and
    its responses at scales 1e-3 to 1e5, up to three responses at 1e6, and
    1 to 3 starts with the steps and length of a descent-ascent run of 1 to
    20 iterations.  Some starts carry an entry of 1e148 to 1e156 or of 1e305
    to 8e307.  Also a second (R, d) stack at the starts' scales, the g of
    each start in the increments check."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 6))
    d = m + draw(st.integers(1, 8))
    R = draw(st.integers(1, 3))
    n = 2 * draw(st.integers(1, 10)) + 1
    X = rng.standard_normal((n * m, d)) * 10.0 ** draw(st.integers(-3, 5))
    y = rng.standard_normal(n * m) * 10.0 ** draw(st.integers(-3, 5))
    y[rng.choice(n * m, draw(st.integers(0, 3)), replace=False)] = 1e6
    scales = 10.0 ** rng.integers(-3, 6, (R, 1))
    starts = rng.standard_normal((R, d)) * scales
    others = rng.standard_normal((R, d)) * scales
    for k in np.flatnonzero(rng.random(R) < draw(st.sampled_from([0.0, 0.3]))):
        lo, hi = ((148.0, 156.0), (305.0, 307.9))[rng.integers(2)]
        starts[k, rng.integers(d)] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)
    step_f, step_g = 10.0 ** rng.uniform(-3.0, 2.0, 2) * gram_step_size(X, m)
    iterations = draw(st.integers(1, 20))
    return X, y, n, m, starts, others, step_f, step_g, iterations, draw(st.integers(0, iterations))


def _wide_run(instance, kind, products, starts=None):
    """The descent-ascent of a ``_wide_descents`` instance from the product
    or the statistics source, or the exception it raised; and the median
    blocks and increments of both half steps in call order, shapes
    (2 * iterations, R) and (2 * iterations, R, n)."""
    X, y, n, m, own_starts, _, step_f, step_g, iterations, warm = instance
    starts = own_starts if starts is None else starts
    obj = _objective(kind, X.shape[1])
    S, b = _kernels.block_stats(X, y, n, m)
    source = solver._ProductIncrements(X, y, n, m) if products else solver._StatisticsIncrements(S, b)
    blocks_seen, incs_seen = [], []

    def recorded(inc, scratch=None):
        j, med = objective.median_block_index(inc, scratch)
        blocks_seen.append(j.copy())
        incs_seen.append(inc.copy())
        return j, med

    args = (S, b, starts, obj.regularizer, obj.lam, step_f, step_g, iterations, warm, source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "median_block_index", recorded)
        out = _outcome(solver._descent_ascent, args)
    R = starts.shape[0]
    return out, np.array(blocks_seen).reshape(-1, R), np.array(incs_seen).reshape(-1, R, n)


def _assert_divergence(out):
    if isinstance(out, Exception):
        assert type(out) is DivergenceError and str(out) in _DIVERGENCE_MESSAGES


def _product_scale(X, y, f, g, n, m):
    """Row k, block j: the block mean of (|X| |f_k| + |X| |g_k| + 2 |y|)^2.
    It bounds both factors of the product form (Xf - Xg)(Xf + Xg - 2y),
    which rounds at the size of |X| |theta|, not of the residual loss."""
    r = (np.abs(f) + np.abs(g)) @ np.abs(X).T + 2.0 * np.abs(y)
    return _kernels.block_means(r * r, n, m)


@given(_wide_descents())
@settings(max_examples=200, deadline=None)
def test_product_increments_match_the_residual_increments(instance):
    X, y, n, m, starts, others, *_ = instance
    source = solver._ProductIncrements(X, y, n, m)
    got = np.full((starts.shape[0], n), math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        source(starts, others, (0, 1), got)
        # moving one player recomputes only its products
        same = np.full_like(got, math.nan)
        source(starts, starts, (1,), same)
        scale = _product_scale(X, y, starts, others, n, m)
    data, p = Dataset(X, y), make_partition(n * m, n)
    for k in np.flatnonzero(np.all(scale < 1e300, axis=1)):
        want = blocks.block_increments(starts[k][None], LinearPredictor(others[k]), data, p)[0]
        assert np.all(np.abs(got[k] - want) <= 1e-11 * scale[k])
        assert np.all(same[k] == 0.0)


@given(_wide_descents(), st.sampled_from(_KINDS))
@settings(max_examples=200, deadline=None)
def test_product_loop_is_the_statistics_loop_where_the_median_blocks_agree(instance, kind):
    X, y, n, m = instance[:4]
    got, got_blocks, got_incs = _wide_run(instance, kind, products=True)
    want, want_blocks, _ = _wide_run(instance, kind, products=False)
    _assert_divergence(got)
    _assert_divergence(want)
    if isinstance(got, Exception) or isinstance(want, Exception):
        return
    for k in range(got_blocks.shape[1]):
        # half step h of iteration h // 2 + 1; the first whose block differs
        differ = np.flatnonzero(got_blocks[:, k] != want_blocks[:, k])
        end = differ[0] + 1 if differ.size else got_blocks.shape[0]
        t = (end - 1) // 2 + 1
        _assert_same_bytes(got[0][:, k, :t], want[0][:, k, :t])
        _assert_same_bytes(got[1][k, : t - 1], want[1][k, : t - 1])
        # Up to that half step both loops compared the same f and g, and the
        # product increments are the residual ones to roundoff.
        h = np.arange(end)
        f, g = want[0][0, k, h // 2], want[0][1, k, h // 2 + h % 2]
        with np.errstate(over="ignore", invalid="ignore"):
            lf, lg = _kernels.block_losses(X, y, f, n, m), _kernels.block_losses(X, y, g, n, m)
            scale = _product_scale(X, y, f, g, n, m)
            ok = np.all(scale < 1e300, axis=1)
            assert np.all(np.abs(got_incs[h, k] - (lf - lg))[ok] <= 1e-11 * scale[ok])
    if np.array_equal(got_blocks, want_blocks):
        _assert_same(got[:2], want[:2])


@given(_wide_descents(), st.sampled_from(_KINDS))
@settings(max_examples=200, deadline=None)
def test_product_loop_restarts_are_their_solo_runs(instance, kind):
    starts = instance[4]
    got = _wide_run(instance, kind, products=True)[0]
    solos = [_wide_run(instance, kind, True, starts[k : k + 1])[0] for k in range(len(starts))]
    _assert_divergence(got)
    if isinstance(got, Exception):
        assert any(type(s) is type(got) and str(s) == str(got) for s in solos)
        return
    for k, solo in enumerate(solos):
        assert not isinstance(solo, Exception)
        _assert_same_bytes(got[0][:, k], solo[0][:, 0])
        _assert_same_bytes(got[1][k], solo[1][0])
        _assert_same_bytes(got[2][k], solo[2][0])


@pytest.mark.parametrize("start,step", [(1e150, 1.0), (1.0, 1e10), (1.0, 1e307)])
@pytest.mark.parametrize("kind", _KINDS)
def test_product_loop_diverges_with_a_loop_message(kind, start, step):
    X, y, S, b, p = _statistics(32, N=315, n=15, d=30)
    obj = _objective(kind, 30)
    starts = np.full((2, 30), start)
    starts[1, 0] = -start
    source = solver._ProductIncrements(X, y, p.n, p.m)
    with pytest.raises(DivergenceError) as raised:
        solver._descent_ascent(S, b, starts, obj.regularizer, obj.lam, step, step, 40, 40, source)
    assert str(raised.value) in _DIVERGENCE_MESSAGES


@pytest.mark.parametrize("d, n, kernel_calls, product_calls", [(5, 15, 2 * 3 * 12, 0),
                                                               (30, 15, 0, 2 * 12)])
def test_fit_takes_products_exactly_where_d_exceeds_m(d, n, kernel_calls, product_calls):
    # N=315 in 15 blocks: m=21, so d=5 takes the statistics and d=30 the products.
    X, y, S, b, p = _statistics(44, N=315, n=n, d=d)
    calls = {"block_increment": 0, "product_increments": 0}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        kernel = getattr(_kernels, name)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(_kernels, name, counted(name))
        mom_minimax_fit(Dataset(X, y), p, _objective("l1", d), SolverConfig(iterations=12, restarts=3))
    assert calls == {"block_increment": kernel_calls, "product_increments": product_calls}
