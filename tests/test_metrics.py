import dataclasses
import math

import numpy as np
import pytest

from fdsched.metrics import empirical_cdf, jain_index, percentile
from oracles import median_gap, read_cdf_csv


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


class TestCsvRoundTrip:
    def test_metadata_and_values_survive(self, tmp_path):
        cdf = empirical_cdf([0.3, 0.1, 0.2], metric="jain", strategy="C-HUN",
                            mu=0.9, weight_mode="SR")
        path = tmp_path / "cdf.csv"
        cdf.write_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == "# jain,C-HUN,0.9,SR"
        assert text.splitlines()[1] == "value,probability"
        loaded = read_cdf_csv(path)
        assert np.array_equal(loaded.values, cdf.values)
        assert np.array_equal(loaded.probabilities, cdf.probabilities)
        assert (loaded.metric, loaded.strategy, loaded.mu, loaded.weight_mode) == \
            ("jain", "C-HUN", 0.9, "SR")

    def test_serialization_is_deterministic(self):
        samples = list(np.random.default_rng(3).normal(size=50))
        a = empirical_cdf(samples, metric="objective", strategy="R-EPA", mu=0.1,
                          weight_mode="PL")
        b = empirical_cdf(samples, metric="objective", strategy="R-EPA", mu=0.1,
                          weight_mode="PL")
        assert a.to_csv_lines() == b.to_csv_lines()

    def test_lines_equal_the_per_element_float_form(self):
        # the rows are written from tolist(); they must equal the repr of
        # each element as a float, the form of the reference lines below,
        # also when the series of one output stage share their formatted
        # rows: two series with one value column, two sample counts, and
        # columns that differ only in the sign of zero
        tricky = [-0.0, 5e-324, 1e308, 0.1 + 0.2, float("nan"), -1.5, 0.0, 1e-320]
        formatted = {}
        for samples, metric, mu in [(tricky * 3, "sum_se", 0.1 + 0.2), (tricky * 3, "jain", 0.5),
                                    (tricky * 2, "sum_se", 0.5), ([0.0] * 16, "min_se", 0.1),
                                    ([-0.0] * 16, "min_se", 0.1), (tricky * 3, "sum_se", 0.9)]:
            cdf = empirical_cdf(samples, metric=metric, strategy="C-HUN", mu=mu,
                                weight_mode="PL")
            want = [f"# {metric},C-HUN,{float(mu)!r},PL", "value,probability"]
            want += [f"{float(v)!r},{float(p)!r}"
                     for v, p in zip(cdf.values, cdf.probabilities)]
            assert cdf.to_csv_lines() == want
            assert cdf.to_csv_lines(formatted) == want
        # two probability columns and four value columns; rows are kept for
        # the one value column used more than once
        assert len(formatted) == 2 + 4
        assert sum(rows is not None for rows in formatted.values()) == 2 + 1
        # a hand-built series whose probabilities are not k/N shares nothing
        halved = dataclasses.replace(cdf, probabilities=cdf.probabilities / 2)
        assert halved.to_csv_lines(formatted)[2:] == [
            f"{float(v)!r},{float(p)!r}" for v, p in zip(halved.values, halved.probabilities)]
        assert {"-0.0", "5e-324", "1e+308", "0.30000000000000004", "nan"} <= {
            line.split(",")[0] for line in empirical_cdf(tricky).to_csv_lines()[2:]}

    def test_values_round_trip_exactly(self, tmp_path):
        # repr-based serialization must preserve doubles bit for bit
        samples = np.random.default_rng(4).normal(size=20) * math.pi
        cdf = empirical_cdf(samples, metric="m", strategy="s", mu=0.5, weight_mode="SR")
        path = tmp_path / "exact.csv"
        cdf.write_csv(path)
        assert np.array_equal(read_cdf_csv(path).values, cdf.values)
