import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momreg import (
    Dataset,
    DimensionError,
    LinearPredictor,
    OddLengthRequired,
    block_increment,
    count_blocks_satisfying,
    make_partition,
    median,
    multiplier_component,
    quad_component,
)
from momreg import _kernels


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
        lf = _kernels.block_losses(X, y, tf, n, m)
        lh = _kernels.block_losses(X, y, th, n, m)
        np.testing.assert_allclose(lf - lh, inc, rtol=1e-9, atol=1e-11)
        batch = _kernels.block_losses(X, y, np.stack([tf, th]), n, m)
        np.testing.assert_allclose(batch, np.stack([lf, lh]), rtol=1e-12, atol=1e-14)


def test_batched_block_losses_span_chunks():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((35, 3))
    y = rng.standard_normal(35)
    thetas = rng.standard_normal((2 * _kernels._CHUNK + 5, 3))
    batch = _kernels.block_losses(X, y, thetas, 7, 5)
    rows = np.stack([_kernels.block_losses(X, y, t, 7, 5) for t in thetas])
    np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-14)


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
    lf = _kernels.block_losses(X, y, tf, n, m)
    lh = _kernels.block_losses(X, y, th, n, m)
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
