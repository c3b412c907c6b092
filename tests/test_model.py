import dataclasses
import itertools

import numpy as np
import pytest

from fdsched.model import (
    GainTable,
    Outcomes,
    ScenarioParams,
    WeightMode,
    dbm_to_watts,
    watts_to_dbm,
)
from fdsched import solvers
from fdsched.scenario import build_gain_table
from fdsched.solvers import STRATEGIES
from oracles import drop_gain_table, pairing_matrix, solve_drop, validate_gain_table


class TestUnitConversions:
    def test_dbm_to_watts_reference_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, abs=0)
        assert dbm_to_watts(24.0) == pytest.approx(0.251188643150958, abs=1e-4)
        assert dbm_to_watts(-116.4) == pytest.approx(2.29086765276777e-15, abs=1e-18)

    def test_round_trip(self):
        for x in np.linspace(-150.0, 50.0, 401):
            assert watts_to_dbm(dbm_to_watts(x)) == pytest.approx(x, abs=1e-9)


# Each case breaks the rule of its message (and maybe others).
BROKEN_RULES = [
    (dict(rng_seed=-1), "rng_seed must be nonnegative, got -1"),
    (dict(num_ul=-1), "num_ul/num_dl must be nonnegative, got -1/4"),
    (dict(num_ul=0, num_dl=0), "at least one user required (num_ul + num_dl >= 1)"),
    (dict(num_ul=0, num_channels=0), "num_channels must be >= 1, got 0"),
    (dict(num_ul=5), "num_ul (5) exceeds num_channels (4)"),
    (dict(num_dl=5), "num_dl (5) exceeds num_channels (4)"),
    (dict(cell_radius_m=0.0), "cell_radius_m must be positive, got 0.0"),
    (dict(noise_power_w=0.0), "noise_power_w must be positive, got 0.0"),
    (dict(si_cancellation=1.5), "si_cancellation must lie in (0, 1], got 1.5"),
    (dict(p_max_dl_w=-1.0), "power caps p_max_ul_w/p_max_dl_w must be positive"),
    (dict(min_bs_ue_distance_m=-1.0), "min_bs_ue_distance_m must be >= 0, got -1.0"),
    (dict(min_bs_ue_distance_m=87.0), "min_bs_ue_distance_m leaves no room inside the cell hexagon"),
]


class TestValidateParams:
    def test_defaults_are_valid(self):
        ScenarioParams(num_ul=4, num_dl=4, num_channels=4)

    def test_too_many_ul_users(self):
        with pytest.raises(ValueError, match="num_ul"):
            ScenarioParams(num_ul=5, num_dl=4, num_channels=4)

    @pytest.mark.parametrize("kw, message", BROKEN_RULES)
    def test_every_rule_raises_when_built_and_through_replace(self, kw, message):
        for build in (lambda: ScenarioParams(**kw),
                      lambda: dataclasses.replace(ScenarioParams(), **kw)):
            with pytest.raises(ValueError) as exc:
                build()
            assert message in str(exc.value)

    def test_mu_out_of_range(self):
        # mu belongs to the objective of a solve, not to ScenarioParams, so
        # every strategy's solve rejects it, NaN included, before it builds
        # a schedule (a NaN once reached C-HUN's assignment as a cost)
        params = ScenarioParams()
        gains = drop_gain_table(params, np.random.default_rng(0))
        for name in STRATEGIES:
            for mu in (1.2, -0.1, float("nan")):
                with pytest.raises(ValueError, match="mu must lie in"):
                    solve_drop(name, gains, params, [(WeightMode.SUM_RATE, mu)],
                          np.random.default_rng(0))

    def test_p_opt_rejects_mu_before_enumerating(self, monkeypatch):
        # P-OPT's first step is the drop's corner tables
        def build_tables(*args):
            raise AssertionError("P-OPT built corner tables for an invalid mu")

        monkeypatch.setattr(solvers, "corner_tables", build_tables)
        params = ScenarioParams(num_ul=5, num_dl=5, num_channels=5)
        gains = drop_gain_table(params, np.random.default_rng(0))
        for mu in (1.2, float("nan")):
            with pytest.raises(ValueError, match="mu must lie in"):
                solve_drop("P-OPT", gains, params, [(WeightMode.SUM_RATE, mu)])

    def test_multiple_violations_all_reported(self):
        with pytest.raises(ValueError) as exc:
            ScenarioParams(num_ul=9, num_channels=4, rng_seed=-1, cell_radius_m=-1.0)
        assert str(exc.value) == (
            "invalid scenario parameters: rng_seed must be nonnegative, got -1; "
            "num_ul (9) exceeds num_channels (4); cell_radius_m must be positive, got -1.0; "
            "min_bs_ue_distance_m leaves no room inside the cell hexagon")

    @pytest.mark.parametrize("field", ["cell_radius_m", "noise_power_w", "si_cancellation",
                                       "p_max_ul_w", "p_max_dl_w", "min_bs_ue_distance_m"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError) as exc:
            ScenarioParams(**{field: value})
        assert f"{field} must be finite, got {value}" in (
            str(exc.value).removeprefix("invalid scenario parameters: ").split("; "))

    def test_weight_mode_keys(self):
        assert WeightMode.from_key("SR") is WeightMode.SUM_RATE
        assert WeightMode.from_key("PL") is WeightMode.PATH_LOSS_COMPENSATION
        with pytest.raises(ValueError):
            WeightMode.from_key("XX")


class TestPartnerRows:
    def test_matrix_row_and_column_sums(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            num_ul = rng.integers(1, 6)
            num_dl = rng.integers(1, 6)
            dl_pool = list(rng.permutation(num_dl))
            partners = []
            for _ in range(num_ul):
                partners.append(int(dl_pool.pop()) if dl_pool and rng.random() < 0.7 else -1)
            x = pairing_matrix(partners, num_dl)
            assert set(np.unique(x)) <= {0.0, 1.0}
            assert x.sum(axis=0).max(initial=0) <= 1
            assert x.sum(axis=1).max(initial=0) <= 1


class TestGainTable:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GainTable(g_ul=np.ones(2), g_dl=np.ones(3), g_cross=np.ones((3, 2)))

    def test_validation_flags_bad_entries(self):
        g = GainTable(g_ul=np.array([1e-8, 0.0]), g_dl=np.ones(1) * 1e-9,
                      g_cross=np.full((2, 1), np.inf))
        bad = validate_gain_table(g)
        assert any("g_ul" in v for v in bad)
        assert any("g_cross" in v for v in bad)

    def test_arrays_are_read_only(self):
        g = GainTable(g_ul=np.ones(1), g_dl=np.ones(1), g_cross=np.ones((1, 1)))
        with pytest.raises(ValueError):
            g.g_ul[0] = 2.0


class TestOutcomes:
    """Every strategy returns one Outcomes per chunk: (D, K) schedule rows
    and objectives, (S, ...) arrays of its distinct schedules, all read-only."""

    OBJECTIVES = [(WeightMode.SUM_RATE, 0.1), (WeightMode.PATH_LOSS_COMPENSATION, 0.5),
                  (WeightMode.SUM_RATE, 0.9)]

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("num_ul, num_dl, num_channels",
                             [(4, 4, 4), (3, 5, 6), (0, 3, 3), (3, 0, 3)])
    def test_read_only_arrays_of_the_documented_shapes(self, name, num_ul, num_dl,
                                                       num_channels):
        params = ScenarioParams(num_ul=num_ul, num_dl=num_dl, num_channels=num_channels)
        drops, count = 5, len(self.OBJECTIVES)
        rngs = [np.random.default_rng(k) for k in range(drops)]
        gains = build_gain_table(params, rngs)
        out = solvers.solve(name, gains, rngs, params, self.OBJECTIVES)
        rows = len(out.sum_se)
        shapes = {"schedule": (drops, count), "objective": (drops, count),
                  "partner_ul": (rows, num_ul), "p_ul": (rows, num_ul), "p_dl": (rows, num_dl),
                  "se_ul": (rows, num_ul), "se_dl": (rows, num_dl), "sum_se": (rows,),
                  "min_se": (rows,), "jain": (rows,)}
        assert [f.name for f in dataclasses.fields(Outcomes)] == list(shapes)
        for field, shape in shapes.items():
            array = getattr(out, field)
            assert array.shape == shape, field
            assert not array.flags.writeable, field
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert out.schedule.dtype == out.partner_ul.dtype == np.intp
        # every row is chosen by some objective of one drop, and no two drops share one
        assert sorted(set(out.schedule.ravel().tolist())) == list(range(rows))
        assert all(not set(a) & set(b) for a, b in itertools.combinations(
            out.schedule.tolist(), 2))
        if name == "R-EPA":   # one draw per drop serves every objective
            assert out.schedule.tolist() == [[d] * count for d in range(drops)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.schedule = out.schedule
