import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momreg import (
    BlockPartition,
    BlockVector,
    Dataset,
    DimensionError,
    InvalidInput,
    LinearPredictor,
    OddLengthRequired,
    block_increment,
    block_increments,
    count_blocks_satisfying,
    make_partition,
    median,
    multiplier_component,
    multiplier_components,
    quad_component,
)
from momreg import _kernels, blocks


def _loop_reference(X, y, tf, th, n, m):
    """Straight per-sample loops: the independent oracle for all kernels."""
    quad = np.zeros(n)
    mult = np.zeros(n)
    inc = np.zeros(n)
    for j in range(n):
        for i in range(j * m, (j + 1) * m):
            zf = float(X[i] @ tf)
            zh = float(X[i] @ th)
            quad[j] += (zf - zh) ** 2
            mult[j] += 2.0 * (zf - zh) * (zh - y[i])
            inc[j] += (zf - y[i]) ** 2 - (zh - y[i]) ** 2
    return quad / m, mult / m, inc / m


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 9, 10), (2, 51, 19), (4, 3, 300)])
def test_block_means_is_bitwise_ndarray_mean(shape):
    rng = np.random.default_rng(len(shape))
    # magnitudes over ten decades, so the order of the additions shows
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, size=shape)
    n, m = shape[-2:]
    got = _kernels.block_means(v.reshape(*shape[:-2], n * m), n, m)
    ref = v.mean(axis=-1)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert blocks.block_means is _kernels.block_means


def test_kernels_match_loop_reference():
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(0, 4)) * 2 + 1
        m = int(rng.integers(1, 9))
        X = rng.standard_normal((n * m, d))
        y = rng.standard_normal(n * m)
        tf = rng.standard_normal(d)
        th = rng.standard_normal(d)
        quad, mult, inc = _loop_reference(X, y, tf, th, n, m)
        data = Dataset(X, y)
        p = make_partition(n * m, n)
        f, h = LinearPredictor(tf), LinearPredictor(th)
        np.testing.assert_allclose(
            quad_component(f, h, data, p).values, quad, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            multiplier_component(f, h, data, p).values, mult, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            block_increment(f, h, data, p).values, inc, rtol=1e-9, atol=1e-11
        )
        S, b = _kernels.block_stats(X, y, n, m)
        np.testing.assert_allclose(
            _kernels.block_increment(S, b, tf, th), inc, rtol=1e-9, atol=1e-11
        )
        lf = _kernels.block_losses(X, y, tf[None], n, m)[0]
        lh = _kernels.block_losses(X, y, th[None], n, m)[0]
        np.testing.assert_allclose(lf - lh, inc, rtol=1e-9, atol=1e-11)
        batch = _kernels.block_losses(X, y, np.stack([tf, th]), n, m)
        np.testing.assert_allclose(batch, np.stack([lf, lh]), rtol=1e-12, atol=1e-14)


def test_batched_block_losses_span_chunks():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((35, 3))
    y = rng.standard_normal(35)
    thetas = rng.standard_normal((2 * _kernels._CHUNK + 5, 3))
    batch = _kernels.block_losses(X, y, thetas, 7, 5)
    rows = np.concatenate([_kernels.block_losses(X, y, t[None], 7, 5) for t in thetas])
    np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-14)


def _one_theta_statistics(X, y, tf, th, n, m):
    """The single-theta residual forms: X @ theta per theta, block means."""
    inc = (
        np.square(X @ tf - y).reshape(n, m).mean(axis=1)
        - np.square(X @ th - y).reshape(n, m).mean(axis=1)
    )
    mult = 2.0 * ((X @ (tf - th)) * (X @ th - y)).reshape(n, m).mean(axis=1)
    return inc, mult


# N = 5000 takes 13 thetas per stacked chunk; N = 70000 one.
@pytest.mark.parametrize("d, n, m, k", [(1, 5, 9, 7), (3, 101, 49, 30), (29, 7, 10000, 3),
                                        (5, 11, 11, 0)])
def test_stacked_statistics_are_the_one_theta_rows(d, n, m, k):
    rng = np.random.default_rng(d)
    N = n * m + 2  # two trailing rows outside the partition
    X = rng.standard_normal((N, d)) * rng.choice([1.0, 1e3], size=(N, 1), p=[0.95, 0.05])
    y = X @ rng.standard_normal(d) + rng.standard_normal(N)
    y[rng.choice(N, size=3, replace=False)] = 1e6
    data = Dataset(X, y)
    p = make_partition(N, n)
    h = LinearPredictor(rng.standard_normal(d))
    thetas = np.vstack([rng.standard_normal((k, d)) * 10.0 ** rng.integers(-3, 3, (k, 1)),
                        h.theta[None, :]])[-k:] if k else np.zeros((0, d))
    incs = block_increments(thetas, h, data, p)
    mults = multiplier_components(thetas, h, data, p)
    assert incs.shape == mults.shape == (k, n)
    for theta, inc, mult in zip(thetas, incs, mults):
        ref_inc, ref_mult = _one_theta_statistics(X[: p.total], y[: p.total], theta, h.theta, n, m)
        np.testing.assert_array_equal(inc, ref_inc)
        np.testing.assert_array_equal(mult, ref_mult)
        f = LinearPredictor(theta)
        np.testing.assert_array_equal(block_increment(f, h, data, p).values, ref_inc)
        np.testing.assert_array_equal(multiplier_component(f, h, data, p).values, ref_mult)
    if k:
        assert np.array_equal(incs[-1], np.zeros(n))  # the last theta is h itself
        # a non-contiguous stack gives the same rows
        wide = np.repeat(thetas, 2, axis=1)[:, ::2]
        np.testing.assert_array_equal(block_increments(wide, h, data, p), incs)


def test_stacked_chunks_bound_the_temporaries():
    for total in (1, 300, 5000, 65536, 65537, 10**6):
        chunks = list(blocks.row_slices(200, total))
        rows = chunks[0].stop - chunks[0].start
        assert rows == max(1, blocks.TEMP_ENTRIES // total)
        assert [c.start for c in chunks] == list(range(0, 200, rows))


def test_stacked_statistics_reject_bad_stacks():
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((9, 2)), rng.standard_normal(9))
    p = make_partition(9, 3)
    h = LinearPredictor([1.0, 2.0])
    for stats in (block_increments, multiplier_components):
        with pytest.raises(DimensionError):
            stats(np.ones(2), h, data, p)
        with pytest.raises(DimensionError):
            stats(np.ones((3, 3)), h, data, p)
        with pytest.raises(DimensionError):
            stats(np.ones((3, 2)), h, data, BlockPartition(3, 5))
        with pytest.raises(InvalidInput), np.errstate(over="ignore", invalid="ignore"):
            stats(np.array([[1.0, 2.0], [np.inf, 0.0]]), h, data, p)
    with pytest.raises(InvalidInput), np.errstate(over="ignore"):
        block_increments(np.array([[1e200, 1e200]]), h, data, p)


@st.composite
def _pass_instances(draw):
    """Inputs of one residual pass: d 1..30, odd n 1..15, m 1..30, 1..12
    thetas with duplicate rows at scales 1e-3..1e5, at times a theta near
    1e100, and a temporary budget of 1..4 thetas or the default."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 30))
    n = 2 * draw(st.integers(0, 7)) + 1
    m = draw(st.integers(1, 30))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n * m, d)) * draw(st.sampled_from([1e-3, 1.0, 1e5]))
    y = X @ rng.standard_normal(d) + rng.standard_normal(n * m)
    h = rng.standard_normal(d)
    thetas = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-3, 6, (k, 1))
    thetas = thetas[rng.integers(0, k, k)]
    if draw(st.booleans()):
        thetas[rng.integers(k)] = 1e100 * rng.uniform(0.5, 1.0, d)
    budget = draw(st.sampled_from([None, 1, 2, 3, 4]))
    return X, y, h, thetas, n, m, budget and budget * n * m


@given(_pass_instances())
@settings(max_examples=150, deadline=None)
def test_residual_sums_give_both_wrappers(instance):
    X, y, h, thetas, n, m, budget = instance
    data, p, hp = Dataset(X, y), BlockPartition(n, m), LinearPredictor(h)
    k = thetas.shape[0]
    mult_thetas = thetas[::-1].copy()
    stack = np.concatenate([thetas, h[None], mult_thetas - h])
    sums = np.empty((2 * k + 1, n))
    blocks._residual_sums(X, y, stack, k, sums)
    # with noisy, the responses are h's own product plus the given noise,
    # which has the bits of responses formed as X @ h + noise
    noise = y[::-1].copy()
    noisy_sums, ref_sums = np.empty_like(sums), np.empty_like(sums)
    blocks._residual_sums(X, noise, stack, k, noisy_sums, noisy=True)
    blocks._residual_sums(X, X @ h + noise, stack, k, ref_sums)
    assert noisy_sums.tobytes() == ref_sums.tobytes()
    sums /= m
    incs, mults = sums[:k] - sums[k], sums[k + 1 :] * 2.0
    with unittest.mock.patch.object(blocks, "TEMP_ENTRIES", budget or blocks.TEMP_ENTRIES):
        assert incs.tobytes() == block_increments(thetas, hp, data, p).tobytes()
        assert mults.tobytes() == multiplier_components(mult_thetas, hp, data, p).tobytes()
        for theta, inc, mult in zip(thetas, incs, mults[::-1]):
            ref_inc, ref_mult = _one_theta_statistics(X, y, theta, h, n, m)
            assert inc.tobytes() == ref_inc.tobytes() and mult.tobytes() == ref_mult.tobytes()
        # a loss that overflows fails the finiteness check of the output
        with pytest.raises(InvalidInput), np.errstate(over="ignore", invalid="ignore"):
            block_increments(np.vstack([thetas, 1e300 * np.ones(X.shape[1])]), hp, data, p)


@st.composite
def _stats_instances(draw):
    """Block data with an increment to compare: noiseless responses, or 1..3
    rows corrupted at 1e6 in either corruption mode."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 6))
    n = 2 * draw(st.integers(0, 5)) + 1
    m = draw(st.integers(1, 12))
    mode = draw(st.sampled_from(["noiseless", "huge_response", "adversarial_leverage"]))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n * m, d))
    theta_star = rng.standard_normal(d)
    y = X @ theta_star
    rows = rng.choice(n * m, size=min(n * m, draw(st.integers(1, 3))), replace=False)
    if mode == "huge_response":
        y[rows] = 1e6
    elif mode == "adversarial_leverage":
        X[rows] = 0.0
        X[rows, 0] = 1e6
        y[rows] = -1e6
    # f near theta* (where noiseless losses vanish), h anywhere
    tf = theta_star + draw(st.sampled_from([0.0, 1e-8, 1e-3, 1.0])) * rng.standard_normal(d)
    th = theta_star + draw(st.sampled_from([0.0, 1e-3, 1.0, 10.0])) * rng.standard_normal(d)
    return X, y, tf, th, n, m


@given(_stats_instances())
@settings(max_examples=200, deadline=None)
def test_stats_increment_matches_exact_increment(instance):
    X, y, tf, th, n, m = instance
    S, b = _kernels.block_stats(X, y, n, m)
    lf = _kernels.block_losses(X, y, tf[None], n, m)[0]
    lh = _kernels.block_losses(X, y, th[None], n, m)[0]
    got = _kernels.block_increment(S, b, tf, th)
    # Both paths carry roundoff of the order of the squares they touch: the
    # two losses and, where the residuals cancel (noiseless blocks near
    # theta*), the block's mean squared response c_j.
    c = np.square(y).reshape(n, m).mean(axis=1)
    assert np.all(np.abs(got - (lf - lh)) <= 1e-11 * (lf + lh + c))
    assert np.array_equal(_kernels.block_increment(S, b, tf, tf), np.zeros(n))
    assert np.array_equal(_kernels.block_increment(S, b, th, th), np.zeros(n))


class TestQuadComponent:
    def test_identical_predictors_vanish(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((12, 2)), rng.standard_normal(12))
        p = make_partition(12, 3)
        f = LinearPredictor(rng.standard_normal(2))
        np.testing.assert_array_equal(
            quad_component(f, f, data, p).values, np.zeros(3)
        )

    def test_hand_arithmetic(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
        p = make_partition(2, 1)
        f = LinearPredictor([1.0])
        h = LinearPredictor([0.0])
        np.testing.assert_allclose(quad_component(f, h, data, p).values, [2.5])

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            data = Dataset(rng.standard_normal((15, 3)), rng.standard_normal(15))
            p = make_partition(15, 5)
            f = LinearPredictor(rng.standard_normal(3))
            h = LinearPredictor(rng.standard_normal(3))
            assert np.all(quad_component(f, h, data, p).values >= 0.0)

    def test_dimension_mismatch(self):
        data = Dataset(np.ones((4, 2)), np.ones(4))
        p = make_partition(4, 1)
        with pytest.raises(DimensionError):
            quad_component(
                LinearPredictor([1.0]), LinearPredictor([1.0, 2.0]), data, p
            )


class TestMultiplierComponent:
    def test_identical_predictors_vanish(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
        p = make_partition(10, 5)
        f = LinearPredictor([1.0, -2.0])
        np.testing.assert_array_equal(
            multiplier_component(f, f, data, p).values, np.zeros(5)
        )

    def test_interpolating_h_vanishes(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((9, 2))
        th = np.array([0.5, -1.5])
        data = Dataset(X, X @ th)  # h(X_i) = Y_i exactly
        p = make_partition(9, 3)
        f = LinearPredictor(rng.standard_normal(2))
        np.testing.assert_allclose(
            multiplier_component(f, LinearPredictor(th), data, p).values,
            np.zeros(3),
            atol=1e-12,
        )

    def test_hand_arithmetic(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
        p = make_partition(2, 1)
        f = LinearPredictor([1.0])
        h = LinearPredictor([0.0])
        np.testing.assert_allclose(
            multiplier_component(f, h, data, p).values, [-2.0]
        )


class TestBlockIncrement:
    def test_identical_predictors_vanish(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.standard_normal((10, 2)), rng.standard_normal(10))
        p = make_partition(10, 5)
        f = LinearPredictor([0.3, 0.7])
        np.testing.assert_array_equal(
            block_increment(f, f, data, p).values, np.zeros(5)
        )

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((14, 3)), rng.standard_normal(14))
        p = make_partition(14, 7)
        f = LinearPredictor(rng.standard_normal(3))
        h = LinearPredictor(rng.standard_normal(3))
        np.testing.assert_array_equal(
            block_increment(f, h, data, p).values,
            -block_increment(h, f, data, p).values,
        )

    def test_hand_arithmetic_both_routes(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 1.0]))
        p = make_partition(2, 1)
        f = LinearPredictor([1.0])
        h = LinearPredictor([0.0])
        b = block_increment(f, h, data, p).values
        np.testing.assert_allclose(b, [0.5])  # (1+1)/2 - (0+1)/2
        q = quad_component(f, h, data, p).values
        m = multiplier_component(f, h, data, p).values
        np.testing.assert_allclose(q + m, [0.5])  # 2.5 - 2


def test_decomposition_identity_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(200):
        d = int(rng.integers(1, 11))
        n = int(rng.integers(0, 10)) * 2 + 1
        m = int(rng.integers(1, 20))
        data = Dataset(
            rng.standard_normal((n * m, d)) * 3.0, rng.standard_normal(n * m) * 3.0
        )
        p = make_partition(n * m, n)
        f = LinearPredictor(rng.standard_normal(d))
        h = LinearPredictor(rng.standard_normal(d))
        b = block_increment(f, h, data, p).values
        q = quad_component(f, h, data, p).values
        mv = multiplier_component(f, h, data, p).values
        scale = np.maximum(np.abs(b), np.abs(q) + np.abs(mv))
        assert np.all(np.abs(b - (q + mv)) <= 1e-9 * np.maximum(scale, 1e-30))


def test_multiplier_reflection_identity():
    # M(f,h) = -M(h,f) - 2 Q(h,f), derivable from the definitions
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(0, 5)) * 2 + 1
        m = int(rng.integers(1, 10))
        data = Dataset(rng.standard_normal((n * m, d)), rng.standard_normal(n * m))
        p = make_partition(n * m, n)
        f = LinearPredictor(rng.standard_normal(d))
        h = LinearPredictor(rng.standard_normal(d))
        lhs = multiplier_component(f, h, data, p).values
        rhs = (
            -multiplier_component(h, f, data, p).values
            - 2.0 * quad_component(h, f, data, p).values
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestMedian:
    def test_middle_of_three(self):
        assert median(np.array([3.0, 1.0, 2.0])) == 2.0

    def test_block_vector_has_one_entry_per_block(self):
        v = BlockVector([3.0, 1.0, 2.0])
        assert len(v) == 3 and median(v) == 2.0

    def test_all_equal(self):
        assert median(np.full(7, 4.2)) == 4.2

    def test_hand_sort(self):
        assert median(np.array([5.0, -1.0, 0.0, 2.0, 9.0])) == 2.0

    def test_even_length_rejected(self):
        with pytest.raises(OddLengthRequired):
            median(np.array([1.0, 2.0]))

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=31,
        ).filter(lambda v: len(v) % 2 == 1)
    )
    def test_is_sorted_middle(self, values):
        arr = np.asarray(values)
        assert median(arr) == sorted(values)[len(values) // 2]

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=21,
        ).filter(lambda v: len(v) % 2 == 1),
        st.randoms(),
    )
    @settings(max_examples=50)
    def test_permutation_invariant(self, values, rand):
        shuffled = list(values)
        rand.shuffle(shuffled)
        assert median(np.asarray(shuffled)) == median(np.asarray(values))

    def test_monotone_in_each_entry(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(0, 6)) * 2 + 1
            v = rng.standard_normal(n)
            i = int(rng.integers(n))
            bumped = v.copy()
            bumped[i] += abs(rng.standard_normal())
            assert median(bumped) >= median(v)


class TestCountBlocksSatisfying:
    def test_hand_counts(self):
        assert count_blocks_satisfying(np.array([1.0, 2.0, 3.0]), 2.0, "ge") == 2
        assert (
            count_blocks_satisfying(
                np.array([0.5, -0.1, 0.2, 0.9, 0.4]), 0.3, "ge"
            )
            == 3
        )

    def test_minus_infinity_threshold(self):
        v = np.random.default_rng(9).standard_normal(11)
        assert count_blocks_satisfying(v, -np.inf, "ge") == 11

    def test_le_direction(self):
        assert count_blocks_satisfying(np.array([1.0, 2.0, 3.0]), 2.0, "le") == 2

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            count_blocks_satisfying(np.array([1.0]), 0.0, "gt")


def test_median_majority_principle_random_vectors():
    # if more than n/2 entries are >= t then the median is >= t (and dually)
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(0, 15)) * 2 + 1
        v = rng.standard_normal(n) * 10.0
        t = float(rng.standard_normal() * 5.0)
        if count_blocks_satisfying(v, t, "ge") > n / 2:
            assert median(v) >= t
        if count_blocks_satisfying(v, t, "le") > n / 2:
            assert median(v) <= t
