import json

import numpy as np
import pytest

from fdsched.model import GainTable, ScenarioParams
from fdsched.scenario import (
    _MAX_PLACEMENT_ATTEMPTS,
    build_gain_table,
    draw_link_states,
    drop_users,
    link_gain,
    los_probability,
    path_loss_db,
    scenario_to_dict,
)
from oracles import load_scenario, reference_build_gain_table, reference_drop_users


def make_params(**kw):
    defaults = dict(num_ul=4, num_dl=4, num_channels=4)
    defaults.update(kw)
    return ScenarioParams(**defaults)


def dump_scenario(gains, path):
    """The file a dump_scenarios run writes for one drop."""
    path.write_text(json.dumps(scenario_to_dict(gains), indent=1, sort_keys=True))


class TestDropUsers:
    def test_all_users_inside_cell_radius(self):
        pos = drop_users(make_params(cell_radius_m=100.0), np.random.default_rng(3))
        for pts in (pos.ul, pos.dl):
            assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 100.0)

    def test_minimum_bs_distance_respected(self):
        params = make_params(min_bs_ue_distance_m=3.0)
        for seed in range(20):
            pos = drop_users(params, np.random.default_rng(seed))
            all_pts = np.vstack([pos.ul, pos.dl])
            assert np.hypot(all_pts[:, 0], all_pts[:, 1]).min() >= 3.0

    def test_fixed_seed_reproducible(self):
        params = make_params()
        a = drop_users(params, np.random.default_rng(7))
        b = drop_users(params, np.random.default_rng(7))
        assert np.array_equal(a.ul, b.ul) and np.array_equal(a.dl, b.dl)

    def test_positions_reach_beyond_the_inscribed_circle(self):
        # a true hexagon drop must place some users past the apothem
        params = make_params(num_ul=400, num_dl=100, num_channels=500)
        pos = drop_users(params, np.random.default_rng(0))
        radii = np.hypot(pos.ul[:, 0], pos.ul[:, 1])
        assert radii.max() > 100.0 * np.sqrt(3) / 2

    @pytest.mark.parametrize("num_ul,num_dl,min_dist", [
        (0, 1, 3.0), (1, 0, 3.0), (4, 4, 3.0), (25, 25, 3.0), (40, 80, 3.0),
        (100, 100, 3.0), (400, 100, 3.0),
        (25, 25, 86.0),  # 0.86 r, just inside the apothem: about 7% acceptance
    ])
    def test_matches_scalar_reference(self, num_ul, num_dl, min_dist):
        params = make_params(num_ul=num_ul, num_dl=num_dl,
                             num_channels=max(num_ul, num_dl),
                             min_bs_ue_distance_m=min_dist)
        for seed in range(50):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            pos = drop_users(params, rng)
            ref = reference_drop_users(params, ref_rng)
            assert np.array_equal(pos.ul, ref.ul) and np.array_equal(pos.dl, ref.dl)
            assert rng.random() == ref_rng.random()


class _ScriptedRng:
    """Stands in for a Generator: uniform() replays fixed candidate points
    in order, whatever shape it is asked for, and returns rejected points
    past the end of the script, so drawing more than is used is legal.
    Reading 4 * _CAP candidates past the end fails, so a placement that
    stops enforcing the miss cap fails instead of hanging.
    bit_generator.state is the read position, so a saved state rewinds."""

    def __init__(self, points):
        self.coords = np.asarray(points, dtype=float).ravel()
        self.used = 0
        self.bit_generator = self

    state = property(lambda self: self.used, lambda self, used: setattr(self, "used", used))

    def uniform(self, low, high, size):
        n = int(np.prod(size))
        if self.used + n > self.coords.size + 8 * _CAP:
            raise RuntimeError("read far past the end of the script")
        out = np.resize(_misses(2), n)
        script = self.coords[self.used:self.used + n]
        out[:script.size] = script
        self.used += n
        return out.reshape(size)


def _hits(lo, hi):
    """Accepted points number lo..hi-1, all distinct (inside the hexagon,
    past 3 m)."""
    return [(10.0 + i, 5.0) for i in range(lo, hi)]


def _misses(k):
    """k rejected points: outside the hexagon or too close to the BS."""
    return [(99.0, 99.0) if i % 2 else (0.5, -0.5) for i in range(k)]


_CAP = _MAX_PLACEMENT_ATTEMPTS


@pytest.mark.parametrize("place", [drop_users, reference_drop_users],
                         ids=["batched", "scalar"])
class TestPlacementCap:
    @pytest.mark.parametrize("num_ul,num_dl,script", [
        # each UE is placed on its 10,000th attempt
        (1, 1, _misses(_CAP - 1) + _hits(0, 1) + _misses(_CAP - 1) + _hits(1, 2)),
        # three hits in a row after 9,999 misses
        (2, 1, _misses(_CAP - 1) + _hits(0, 3)),
    ], ids=["two-ues", "batch-of-three"])
    def test_last_attempt_places_the_ue(self, place, num_ul, num_dl, script):
        params = make_params(num_ul=num_ul, num_dl=num_dl)
        rng = _ScriptedRng(script)
        pos = place(params, rng)
        ref = reference_drop_users(params, _ScriptedRng(script))
        assert np.array_equal(pos.ul, ref.ul) and np.array_equal(pos.dl, ref.dl)
        assert np.array_equal(np.vstack([pos.ul, pos.dl]), _hits(0, num_ul + num_dl))
        assert rng.used == rng.coords.size

    @pytest.mark.parametrize("num_ul,num_dl,script", [
        (1, 0, _misses(_CAP)),
        # the 10,000th miss comes just before three hits
        (2, 1, _misses(_CAP) + _hits(0, 3)),
    ], ids=["alone", "batch-of-three"])
    def test_first_ue_gives_up_after_cap_misses(self, place, num_ul, num_dl, script):
        with pytest.raises(ValueError, match="could not place a UE inside the cell"):
            place(make_params(num_ul=num_ul, num_dl=num_dl), _ScriptedRng(script))

    def test_later_ue_gives_up_after_cap_misses(self, place):
        script = _hits(0, 1) + _misses(_CAP) + _hits(1, 2)
        with pytest.raises(ValueError, match="could not place a UE inside the cell"):
            place(make_params(num_ul=1, num_dl=1), _ScriptedRng(script))

    def test_misses_after_the_last_hit_do_not_count(self, place):
        # At 86 m about 7% of candidates are accepted, so the one-draw
        # block for 1,000 UEs holds more than _CAP candidates past the script.
        hits = [(87.0 + 0.01 * i, 0.0) for i in range(1000)]
        params = make_params(num_ul=500, num_dl=500, num_channels=500,
                             min_bs_ue_distance_m=86.0)
        rng = _ScriptedRng(hits)
        pos = place(params, rng)
        assert np.array_equal(np.vstack([pos.ul, pos.dl]), hits)
        assert rng.used == rng.coords.size


class TestLinkGain:
    def test_los_reference_distance(self):
        # 34.96 + 22.7 * log10(100) = 80.36 dB
        assert path_loss_db(100.0, True) == pytest.approx(80.36, rel=1e-12)
        assert link_gain(100.0, True, 0.0) == pytest.approx(10 ** (-8.036), rel=1e-12)

    def test_nlos_reference_distance(self):
        # 33.36 + 38.35 * log10(10) = 71.71 dB
        assert path_loss_db(10.0, False) == pytest.approx(71.71, rel=1e-12)
        assert link_gain(10.0, False, 0.0) == pytest.approx(10 ** (-7.171), rel=1e-12)

    def test_shadowing_is_multiplicative_in_linear_scale(self):
        for d in (2.0, 30.0, 95.0):
            base = link_gain(d, True, 0.0)
            assert link_gain(d, True, -3.0) == pytest.approx(base * 10 ** 0.3, rel=1e-12)

    def test_distance_clamped_at_one_meter(self):
        assert link_gain(0.3, False, 0.0) == link_gain(1.0, False, 0.0)

    def test_gain_strictly_decreasing_in_distance(self):
        d = np.linspace(1.0, 200.0, 500)
        for los in (True, False):
            g = link_gain(d, los, 0.0)
            assert np.all(np.diff(g) < 0)


class TestLinkStates:
    def test_los_probability_rule(self):
        assert los_probability(5.0) == pytest.approx(1.0)
        assert los_probability(18.0) == pytest.approx(1.0)
        d = 100.0
        expected = (18.0 / d) * (1 - np.exp(-d / 36.0)) + np.exp(-d / 36.0)
        assert los_probability(d) == pytest.approx(expected, rel=1e-12)

    def test_states_replay_the_draws_group_by_group(self):
        # 20-200 m: LOS probability 0.93 down to 0.17, so both states occur
        sizes = [7, 0, 30, 400]
        d = np.linspace(20.0, 200.0, sum(sizes))
        los, shadow = draw_link_states(d, np.random.default_rng(5), sizes)
        assert los.any() and not los.all()
        replay, start = np.random.default_rng(5), 0
        for n in sizes:
            u, z = replay.random(n), replay.standard_normal(n)
            group = slice(start, start + n)
            assert np.array_equal(los[group], u < los_probability(d[group]))
            assert shadow[group][los[group]].tobytes() == (z[los[group]] * 3.0).tobytes()
            assert shadow[group][~los[group]].tobytes() == (z[~los[group]] * 4.0).tobytes()
            start += n

    def test_links_within_18_m_are_always_los(self):
        # min(18/d, 1) = 1 up to 18 m, so the LOS probability is 1 there
        d = np.linspace(0.5, 18.0, 500)
        los, shadow = draw_link_states(d, np.random.default_rng(2), [d.size])
        replay = np.random.default_rng(2)
        replay.random(d.size)
        assert los.all()
        assert shadow.tobytes() == (replay.standard_normal(d.size) * 3.0).tobytes()

    def test_shadowing_statistics(self):
        # zero-mean in dB; std within 5% of 3 dB on LOS links, 4 dB on NLOS
        d = np.full(40_000, 50.0)
        los, shadow = draw_link_states(d, np.random.default_rng(5), [d.size])
        for state, std in ((los, 3.0), (~los, 4.0)):
            assert state.sum() > 10_000
            assert abs(shadow[state].mean()) < 0.1
            assert abs(shadow[state].std() - std) < 0.05 * std

    def test_sizes_must_cover_every_link(self):
        d = np.full(10, 50.0)
        for sizes in ([4, 5], [4, 7], []):
            with pytest.raises(ValueError):
                draw_link_states(d, np.random.default_rng(0), sizes)

    def test_los_fraction_tracks_probability(self):
        d = np.full(20_000, 40.0)
        los, _ = draw_link_states(d, np.random.default_rng(11), [d.size])
        assert los.mean() == pytest.approx(los_probability(40.0), abs=0.02)


class TestBuildGainTable:
    def test_shapes(self):
        g = build_gain_table(make_params(num_ul=1, num_dl=1, num_channels=2),
                             np.random.default_rng(0))
        assert g.g_ul.shape == (1,) and g.g_dl.shape == (1,) and g.g_cross.shape == (1, 1)

    def test_gains_positive_and_finite(self):
        g = build_gain_table(make_params(), np.random.default_rng(1))
        for arr in (g.g_ul, g.g_dl, g.g_cross):
            assert np.all(np.isfinite(arr)) and np.all(arr > 0)

    def test_bit_identical_across_runs(self):
        params = make_params()
        a = build_gain_table(params, np.random.default_rng(9))
        b = build_gain_table(params, np.random.default_rng(9))
        assert np.array_equal(a.g_ul, b.g_ul)
        assert np.array_equal(a.g_dl, b.g_dl)
        assert np.array_equal(a.g_cross, b.g_cross)

    def test_dump_load_round_trip(self, tmp_path):
        g = build_gain_table(make_params(), np.random.default_rng(4))
        path = tmp_path / "scenario.json"
        dump_scenario(g, path)
        loaded = load_scenario(path)
        assert np.array_equal(loaded.g_ul, g.g_ul)
        assert np.array_equal(loaded.g_dl, g.g_dl)
        assert np.array_equal(loaded.g_cross, g.g_cross)
        assert np.array_equal(loaded.positions.ul, g.positions.ul)

    @pytest.mark.parametrize("num_ul,num_dl,min_dist", [
        (4, 4, 3.0), (25, 25, 3.0), (40, 80, 3.0), (0, 5, 3.0), (5, 0, 3.0),
        (100, 100, 3.0),
        (25, 25, 86.0),  # about 7% acceptance
    ])
    # 9 m: every link, cross links too, is within 18 m and so LOS;
    # 2,000 m: LOS probability below 2%, so nearly every link is NLOS
    @pytest.mark.parametrize("radius", [100.0, 9.0, 2000.0])
    def test_matches_per_group_reference(self, num_ul, num_dl, min_dist, radius):
        # min_dist is given for the 100 m cell and scales with the radius
        params = make_params(num_ul=num_ul, num_dl=num_dl,
                             num_channels=max(num_ul, num_dl),
                             cell_radius_m=radius,
                             min_bs_ue_distance_m=min_dist * radius / 100.0)
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            g = build_gain_table(params, rng)
            ref = reference_build_gain_table(params, ref_rng)
            for name in ("g_ul", "g_dl", "g_cross"):
                a, b = getattr(g, name), getattr(ref, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert g.positions.ul.tobytes() == ref.positions.ul.tobytes()
            assert g.positions.dl.tobytes() == ref.positions.dl.tobytes()
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
    @pytest.mark.parametrize("field", ["g_ul", "g_dl", "g_cross"])
    def test_load_rejects_non_finite_or_non_positive_gain(self, tmp_path, field, bad):
        g = build_gain_table(make_params(), np.random.default_rng(4))
        arrays = {name: getattr(g, name).copy() for name in ("g_ul", "g_dl", "g_cross")}
        arrays[field].flat[1] = bad
        path = tmp_path / "scenario.json"
        dump_scenario(GainTable(positions=g.positions, **arrays), path)
        with pytest.raises(ValueError, match=field):
            load_scenario(path)
