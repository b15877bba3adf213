import numpy as np
import pytest

from momreg import (
    ConfigError,
    CorruptionSpec,
    DesignSpec,
    NoiseSpec,
    corrupt,
    erm_fit,
    generate,
    make_partition,
)


class TestNoiseSpec:
    def test_student_t_needs_dof(self):
        with pytest.raises(ConfigError):
            NoiseSpec("student_t", 1.0)
        with pytest.raises(ConfigError):
            NoiseSpec("student_t", 1.0, dof=2.0)

    def test_gaussian_takes_no_dof(self):
        with pytest.raises(ConfigError):
            NoiseSpec("gaussian", 1.0, dof=3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="^unknown noise kind 'cauchy'$"):
            NoiseSpec("cauchy", 1.0)


class TestGenerate:
    def test_seed_determinism(self):
        design = DesignSpec.identity(3)
        a = generate(50, 3, np.ones(3), design, NoiseSpec("gaussian", 1.0), 42)
        b = generate(50, 3, np.ones(3), design, NoiseSpec("gaussian", 1.0), 42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.responses, b.responses)

    def test_noiseless_limit_recovers_theta(self):
        design = DesignSpec.identity(4)
        theta = np.array([1.0, 2.0, -3.0, 0.5])
        data = generate(200, 4, theta, design, NoiseSpec("gaussian", 1e-12), 0)
        np.testing.assert_allclose(erm_fit(data).theta, theta, atol=1e-6)

    def test_response_variance_sanity(self):
        design = DesignSpec.identity(2)
        data = generate(
            10**5, 2, np.zeros(2), design, NoiseSpec("gaussian", 1.0), 1
        )
        assert abs(np.var(data.responses) - 1.0) < 0.02

    def test_covariance_respected(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        data = generate(
            10**5, 2, np.zeros(2), DesignSpec(cov), NoiseSpec("gaussian", 1.0), 2
        )
        emp = data.features.T @ data.features / data.n_samples
        np.testing.assert_allclose(emp, cov, atol=0.05)

    def test_student_t_scale(self):
        design = DesignSpec.identity(1)
        data = generate(
            10**5, 1, np.zeros(1), design, NoiseSpec("student_t", 2.0, dof=2.5), 3
        )
        # dof 2.5 has finite variance dof/(dof-2) * scale^2 = 5 * 4 = 20 but
        # slow tails; just check the half-width spread is in the right range
        q75 = np.percentile(np.abs(data.responses), 75)
        assert 1.5 < q75 < 4.5


class TestCorrupt:
    def _data(self, n=40, seed=0):
        design = DesignSpec.identity(2)
        return generate(n, 2, np.ones(2), design, NoiseSpec("gaussian", 1.0), seed)

    def test_zero_count_identity(self):
        data = self._data()
        out, idx = corrupt(data, CorruptionSpec(count=0), 0)
        assert idx == []
        np.testing.assert_array_equal(out.features, data.features)
        np.testing.assert_array_equal(out.responses, data.responses)

    def test_sign_flip_involution(self):
        data = self._data()
        spec = CorruptionSpec(count=40, mode="sign_flip")
        once, _ = corrupt(data, spec, 1)
        twice, _ = corrupt(once, spec, 2)
        np.testing.assert_array_equal(twice.responses, data.responses)
        np.testing.assert_array_equal(twice.features, data.features)

    def test_huge_response_touches_exactly_count(self):
        data = self._data(100)
        out, idx = corrupt(
            data, CorruptionSpec(count=10, mode="huge_response", magnitude=1e6), 3
        )
        assert len(idx) == 10
        assert np.count_nonzero(out.responses == 1e6) == 10
        untouched = np.setdiff1d(np.arange(100), idx)
        np.testing.assert_array_equal(
            out.responses[untouched], data.responses[untouched]
        )
        np.testing.assert_array_equal(out.features, data.features)

    def test_adversarial_leverage(self):
        data = self._data(30)
        out, idx = corrupt(
            data,
            CorruptionSpec(count=3, mode="adversarial_leverage", magnitude=100.0),
            4,
        )
        u = np.zeros(2)
        u[0] = 1.0
        for i in idx:
            np.testing.assert_array_equal(out.features[i], 100.0 * u)
            assert out.responses[i] == -100.0

    def test_explicit_indices(self):
        data = self._data(30)
        spec = CorruptionSpec(count=2, mode="sign_flip", indices=(5, 17))
        out, idx = corrupt(data, spec, 0)
        assert idx == [5, 17]
        np.testing.assert_array_equal(out.responses[[5, 17]], -data.responses[[5, 17]])

    def test_count_exceeding_n_rejected(self):
        with pytest.raises(ConfigError):
            corrupt(self._data(10), CorruptionSpec(count=11), 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="^unknown corruption mode 'bogus'$"):
            CorruptionSpec(count=1, mode="bogus")

    def test_repeated_index_rejected(self):
        spec = CorruptionSpec(count=2, indices=(3, 3))
        with pytest.raises(ConfigError, match="^explicit corruption indices must be distinct$"):
            corrupt(self._data(10), spec, 0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ConfigError):
            corrupt(
                self._data(10), CorruptionSpec(count=1, indices=(10,)), 0
            )

    def test_corrupted_blocks_bounded_by_count(self):
        data = self._data(100)
        p = make_partition(100, 25)
        for count in (1, 5, 11):
            out, idx = corrupt(
                data, CorruptionSpec(count=count, mode="huge_response"), count
            )
            touched_blocks = {
                j for j in range(p.n) if any(j * p.m <= i < (j + 1) * p.m for i in idx)
            }
            assert len(touched_blocks) <= count

