import numpy as np
import pytest

from fdsched.metrics import empirical_cdf, jain_index, percentile
from oracles import median_gap


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_index([3.7, 3.7, 3.7, 3.7]) == pytest.approx(1.0)

    def test_single_winner_hits_lower_bound(self):
        assert jain_index([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_two_user_example(self):
        assert jain_index([2.0, 4.0]) == pytest.approx(0.9)

    def test_all_zero_defined_as_fair(self):
        with pytest.warns(UserWarning, match="all-zero vector, returning 1.0"):
            assert jain_index([0.0, 0.0, 0.0]) == 1.0

    def test_bounds_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            x = rng.uniform(0.0, 10.0, size=n)
            j = jain_index(x)
            assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12
            assert jain_index(7.3 * x) == pytest.approx(j, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([1.0, -2.0])
        with pytest.raises(ValueError):
            jain_index([[1.0, 2.0], [1.0, -2.0]])

    @pytest.mark.parametrize("n", [8, 50, 120])
    def test_rows_equal_each_vector_bit_for_bit(self, n):
        # the rows of a matrix against one vector's floats, float(sum) ** 2
        # (libm pow) over n * (x @ x): numpy's array ** 2 (x * x) and einsum
        # each differ from them in some of these rows
        rows = np.random.default_rng(n).uniform(0.0, 10.0, size=(20_000, n))
        got = jain_index(rows)
        assert got.shape == (len(rows),)
        want = [float(x.sum()) ** 2 / (n * float(x @ x)) for x in rows]
        assert got.tolist() == want
        assert [jain_index(x) for x in rows[:500]] == want[:500]

    def test_all_zero_rows_defined_as_fair(self):
        rows = np.array([[2.0, 4.0], [0.0, 0.0], [5.0, 0.0]])
        with pytest.warns(UserWarning, match="all-zero vector, returning 1.0"):
            assert jain_index(rows).tolist() == [jain_index([2.0, 4.0]), 1.0, 0.5]


class TestEmpiricalCdf:
    def test_probabilities_are_k_over_n(self):
        cdf = empirical_cdf([4.0, 1.0, 3.0, 2.0])
        assert np.array_equal(cdf.values, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(cdf.probabilities, [0.25, 0.5, 0.75, 1.0])

    def test_constant_samples_make_a_step(self):
        cdf = empirical_cdf([2.5] * 10)
        assert np.all(cdf.values == 2.5)
        assert cdf.probabilities[-1] == 1.0

    def test_sample_count_preserved(self):
        cdf = empirical_cdf(np.random.default_rng(1).normal(size=400))
        assert len(cdf) == 400

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])
        with pytest.raises(ValueError):
            empirical_cdf(np.empty((0, 3)))

    def test_columns_sort_as_each_column_alone(self):
        samples = np.random.default_rng(6).choice([-0.0, 0.0, np.nan, 1.0], size=(50, 3, 2))
        cdf = empirical_cdf(samples)
        assert len(cdf) == 50 and cdf.values.shape == samples.shape
        for at in np.ndindex(samples.shape[1:]):
            column = samples[(slice(None), *at)]
            assert cdf.values[(slice(None), *at)].tobytes() == np.sort(column).tobytes()
        assert np.array_equal(cdf.probabilities, empirical_cdf(samples[:, 0, 0]).probabilities)


class TestPercentile:
    def test_nearest_rank_median(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert percentile(cdf, 50) == 2.0

    def test_extremes(self):
        cdf = empirical_cdf([5.0, 1.0, 3.0])
        assert percentile(cdf, 0) == 1.0
        assert percentile(cdf, 100) == 5.0

    def test_monotone_in_q(self):
        cdf = empirical_cdf(np.random.default_rng(2).normal(size=101))
        values = [percentile(cdf, q) for q in range(0, 101, 5)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_columns_give_a_row(self):
        samples = np.random.default_rng(7).normal(size=(41, 2, 3))
        row = percentile(empirical_cdf(samples), 50)
        assert row.shape == (2, 3)
        assert row.tolist() == [[percentile(empirical_cdf(samples[:, i, j]), 50)
                                 for j in range(3)] for i in range(2)]

    def test_out_of_range_rejected(self):
        cdf = empirical_cdf([1.0])
        with pytest.raises(ValueError):
            percentile(cdf, 101)


class TestMedianGap:
    def test_identical_series(self):
        a = empirical_cdf([1.0, 2.0, 3.0])
        assert median_gap(a, a) == 0.0

    def test_halved_baseline_doubles(self):
        samples = np.linspace(1.0, 2.0, 11)
        a = empirical_cdf(samples)
        b = empirical_cdf(samples * 0.5)
        assert median_gap(a, b) == pytest.approx(1.0)

    def test_zero_baseline_rejected(self):
        a = empirical_cdf([1.0])
        b = empirical_cdf([0.0])
        with pytest.raises(ZeroDivisionError):
            median_gap(a, b)
