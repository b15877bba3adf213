import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momreg import (
    Dataset,
    DesignSpec,
    DimensionError,
    LinearPredictor,
    OddBlockCountRequired,
    ParseError,
    TooManyBlocks,
    load_dataset,
    make_partition,
    population_l2_distance,
    save_dataset,
)
from momreg.model import MAX_MAGNITUDE, population_sq_distances, row_permutation


class TestDataset:
    def test_shape_and_access(self):
        data = Dataset(np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0]))
        assert data.n_samples == 3
        assert data.dim == 2

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))

    def test_immutable(self):
        data = Dataset(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0


class TestMakePartition:
    def test_exact_division(self):
        p = make_partition(10, 5)
        assert (p.n, p.m) == (5, 2)
        assert (2 * p.m, 3 * p.m) == (4, 6)  # third block covers samples 5,6 (1-based)

    def test_floor_rule_drops_leftover(self):
        p = make_partition(11, 5)
        assert (p.n, p.m) == (5, 2)
        assert p.total == 10  # index 11 dropped

    def test_even_count_rejected(self):
        with pytest.raises(OddBlockCountRequired):
            make_partition(10, 4)

    def test_too_many_blocks(self):
        with pytest.raises(TooManyBlocks):
            make_partition(4, 5)

    def test_blocks_disjoint_equal_and_cover(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            N = int(rng.integers(1, 500))
            n = int(rng.integers(0, (N - 1) // 2 + 1)) * 2 + 1
            p = make_partition(N, n)
            seen = np.concatenate([np.arange(j * p.m, (j + 1) * p.m) for j in range(p.n)])
            assert seen.size == p.n * (N // p.n) == p.total
            assert np.unique(seen).size == seen.size


class TestPopulationDistance:
    def test_identical_predictors(self):
        design = DesignSpec(np.array([[2.0, 0.3], [0.3, 1.0]]))
        f = LinearPredictor([1.0, -1.0])
        assert population_l2_distance(f, f, design) == 0.0

    def test_identity_covariance(self):
        design = DesignSpec.identity(2)
        f = LinearPredictor([1.0, 0.0])
        h = LinearPredictor([0.0, 0.0])
        assert population_l2_distance(f, h, design) == 1.0

    def test_hand_quadratic_form(self):
        design = DesignSpec(np.array([[2.0, 0.0], [0.0, 1.0]]))
        f = LinearPredictor([1.0, 1.0])
        h = LinearPredictor([0.0, 0.0])
        np.testing.assert_allclose(
            population_l2_distance(f, h, design), np.sqrt(3.0)
        )

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            A = rng.standard_normal((d, d))
            design = DesignSpec(A @ A.T + d * np.eye(d))
            f, g, h = (LinearPredictor(rng.standard_normal(d)) for _ in range(3))
            dfg = population_l2_distance(f, g, design)
            dgf = population_l2_distance(g, f, design)
            dfh = population_l2_distance(f, h, design)
            dhg = population_l2_distance(h, g, design)
            assert abs(dfg - dgf) < 1e-10
            assert dfg <= dfh + dhg + 1e-10


@st.composite
def _distance_stacks(draw):
    """A (k, d) stack, a center and a design: identity or a random SPD
    covariance, rows scaled up to 1e154 (their squares near the largest
    float), rows equal to the center, and, with overflow, rows whose
    difference from a center of +-1e308 entries overflows."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, 10))
    rng = np.random.default_rng(seed)
    cov = np.eye(d)
    if draw(st.booleans()):
        A = rng.standard_normal((d, d))
        cov = A @ A.T + rng.uniform(1e-3, 1.0) * np.eye(d)
    thetas = rng.standard_normal((k, d)) * 10.0 ** rng.integers(-3, 155, (k, 1))
    center = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 155)
    thetas[rng.random(k) < 0.2] = center
    if draw(st.booleans()):
        center = np.where(rng.random(d) < 0.5, -1e308, 1e308)
        thetas[rng.random(k) < 0.5, 0] = -center[0]
    return thetas, center, DesignSpec(cov)


@given(_distance_stacks())
@settings(max_examples=200, deadline=None)
def test_sq_distances_are_the_clamped_one_vector_norms(instance):
    # Each finite row is max(delta @ Sigma @ delta, 0.0), bit for bit and
    # with the sign of a zero; a row whose difference or norm overflows,
    # or whose norm is nan (inf * 0), reads +inf.  Offsets with center 0.0
    # give the same bits.
    thetas, center, design = instance
    got = population_sq_distances(thetas, center, design)
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = thetas - center
        want = [float(delta @ design.covariance @ delta) for delta in deltas]
    want = np.array([max(q, 0.0) if np.isfinite(q) else np.inf for q in want])
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == population_sq_distances(deltas, 0.0, design).tobytes()


class TestDesignSpec:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            DesignSpec(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            DesignSpec(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError, match="non-empty"):
            DesignSpec.identity(0)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((7, 3)), rng.standard_normal(7))
        path = tmp_path / "data.csv"
        save_dataset(path, data)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.responses, data.responses)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x0,y\n1.0,2.0\n\n3.0,4.0\n\n")
        data = load_dataset(path)
        np.testing.assert_array_equal(data.features, [[1.0], [3.0]])
        np.testing.assert_array_equal(data.responses, [2.0, 4.0])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,3\n")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert excinfo.value.row == 1

    @pytest.mark.parametrize(
        "text, row, message",
        [("", 1, "empty CSV file"), ("x0,y\n", 2, "CSV has a header but no data rows")],
        ids=["empty", "header_only"],
    )
    def test_file_without_data_rows_names_row(self, tmp_path, text, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{message}$") as excinfo:
            load_dataset(path)
        assert excinfo.value.row == row

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert excinfo.value.row == 3

    def test_wrong_cell_count_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,y\n1.0,2.0,3.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert excinfo.value.row == 2

    @pytest.mark.parametrize("cell", ["1e200", "-1e101", "1.0000000000000002e100"])
    def test_cell_above_max_magnitude_names_row(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,y\n1.0,2.0\n1.0,{cell}\n")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert excinfo.value.row == 3
        assert str(excinfo.value) == (
            f"row 3: cell of magnitude above 1e+100 in ['1.0', '{cell}']"
        )

    def test_cells_at_max_magnitude_load(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("x0,y\n1e100,-1e100\n")
        data = load_dataset(path)
        assert data.features[0, 0] == MAX_MAGNITUDE and data.responses[0] == -MAX_MAGNITUDE


def test_row_permutation_is_seeded_permutation():
    perm = row_permutation(20, 7)
    np.testing.assert_array_equal(perm, row_permutation(20, 7))
    np.testing.assert_array_equal(np.sort(perm), np.arange(20))
    assert not np.array_equal(perm, np.arange(20))
