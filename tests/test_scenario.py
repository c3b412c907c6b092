import json

import numpy as np
import pytest

from fdsched.model import GainTable, ScenarioParams
from fdsched.scenario import (
    _MAX_PLACEMENT_ATTEMPTS,
    build_gain_table,
    draw_link_states,
    link_gain,
    los_probability,
    path_loss_db,
    scenario_to_dict,
)
from oracles import (drop_gain_table, drop_views, load_scenario, reference_build_gain_table,
                     reference_drop_users)


def make_params(**kw):
    defaults = dict(num_ul=4, num_dl=4, num_channels=4)
    defaults.update(kw)
    return ScenarioParams(**defaults)


def drop_users(params, rng):
    """The UE positions of the one drop that rng makes."""
    return drop_gain_table(params, rng).positions


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
        rngs = [np.random.default_rng(s) for s in range(20)]
        for table in drop_views(build_gain_table(params, rngs)):
            all_pts = np.vstack([table.positions.ul, table.positions.dl])
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
        # 50 drops in batches of 10, each drop's positions those of placing
        # one candidate at a time
        params = make_params(num_ul=num_ul, num_dl=num_dl,
                             num_channels=max(num_ul, num_dl),
                             min_bs_ue_distance_m=min_dist)
        for seeds in np.arange(50).reshape(5, 10).tolist():
            rngs = [np.random.default_rng(s) for s in seeds]
            tables = drop_views(build_gain_table(params, rngs))
            for seed, table in zip(seeds, tables):
                ref = reference_drop_users(params, np.random.default_rng(seed))
                assert np.array_equal(table.positions.ul, ref.ul)
                assert np.array_equal(table.positions.dl, ref.dl)


_RADIUS = 100.0   # make_params' cell radius, which the scripted points assume


class _ScriptedRng:
    """Stands in for a Generator: candidate blocks (random() into a 2-D out)
    replay fixed points in order, whatever shape they are asked for, and
    are rejected points past the end of the script, so drawing more than
    is used is legal.  A point (x, y) is scripted as the uniforms of
    uniform(-r, r), which reference_drop_users' uniform() turns back; see
    _drawn.  Reading 8 * _CAP coordinates past the end fails, so a
    placement that stops enforcing the miss cap fails instead of hanging.
    bit_generator.advance(n) moves the read position by n coordinates (a
    rewind for n < 0).  The link draws (1-D outs) read 0.5 and 0 and leave
    the script where it is."""

    def __init__(self, points):
        self.coords = (np.asarray(points, dtype=float).ravel() + _RADIUS) / (2 * _RADIUS)
        self.used = 0
        self.bit_generator = self

    def advance(self, delta):
        self.used += delta

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        if out.ndim == 1:
            out.fill(0.5)
            return out
        n = out.size
        if self.used + n > self.coords.size + 8 * _CAP:
            raise RuntimeError("read far past the end of the script")
        flat = np.resize(_ScriptedRng.MISSES, n)
        script = self.coords[self.used:self.used + n]
        flat[:script.size] = script
        self.used += n
        out[...] = flat.reshape(out.shape)
        return out

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out.fill(0.0)
        return out

    def uniform(self, low, high, size):
        return low + (high - low) * self.random(out=np.empty((1, int(np.prod(size))))).reshape(size)


def _hits(lo, hi):
    """Accepted points number lo..hi-1, all distinct (inside the hexagon,
    past 3 m)."""
    return [(10.0 + i, 5.0) for i in range(lo, hi)]


def _misses(k):
    """k rejected points: outside the hexagon or too close to the BS."""
    return [(99.0, 99.0) if i % 2 else (0.5, -0.5) for i in range(k)]


def _drawn(points):
    """The scripted points as a drop places them: uniform(-r, r) of their
    scripted uniforms, which may round differently from the points."""
    return -_RADIUS + 2 * _RADIUS * _ScriptedRng(points).coords.reshape(-1, 2)


_ScriptedRng.MISSES = _ScriptedRng(_misses(2)).coords
_CAP = _MAX_PLACEMENT_ATTEMPTS


def _placed_in_a_batch(params, rng):
    """rng's UE positions from build_gain_table on a batch of three, rng
    between two numpy generators; their drops must be those they make
    alone, their end states too."""
    first, last = np.random.default_rng(1), np.random.default_rng(2)
    tables = drop_views(build_gain_table(params, [first, rng, last]))
    for seed, other, table in ((1, first, tables[0]), (2, last, tables[2])):
        ref_rng = np.random.default_rng(seed)
        ref = reference_build_gain_table(params, ref_rng)
        assert table.g_cross.tobytes() == ref.g_cross.tobytes()
        assert table.positions.ul.tobytes() == ref.positions.ul.tobytes()
        assert other.bit_generator.state == ref_rng.bit_generator.state
    return tables[1].positions


@pytest.mark.parametrize("place", [_placed_in_a_batch, reference_drop_users],
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
        assert np.array_equal(np.vstack([pos.ul, pos.dl]), _drawn(_hits(0, num_ul + num_dl)))
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
        assert np.array_equal(np.vstack([pos.ul, pos.dl]), _drawn(hits))
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
        # 20-200 m: LOS probability 0.93 down to 0.17, so both states occur;
        # one row of links per generator, the second row reversed
        sizes = [7, 0, 30, 400]
        d = np.linspace(20.0, 200.0, sum(sizes))
        rows = np.stack([d, d[::-1]])
        los, shadow = draw_link_states(rows, [np.random.default_rng(5), np.random.default_rng(6)],
                                       sizes)
        for seed, row, row_los, row_shadow in zip((5, 6), rows, los, shadow):
            assert row_los.any() and not row_los.all()
            replay, start = np.random.default_rng(seed), 0
            for n in sizes:
                u, z = replay.random(n), replay.standard_normal(n)
                group = slice(start, start + n)
                is_los = row_los[group]
                assert np.array_equal(is_los, u < los_probability(row[group]))
                assert row_shadow[group][is_los].tobytes() == (z[is_los] * 3.0).tobytes()
                assert row_shadow[group][~is_los].tobytes() == (z[~is_los] * 4.0).tobytes()
                start += n

    def test_links_within_18_m_are_always_los(self):
        # min(18/d, 1) = 1 up to 18 m, so the LOS probability is 1 there
        d = np.linspace(0.5, 18.0, 500)
        los, shadow = draw_link_states(d, [np.random.default_rng(2)], [d.size])
        replay = np.random.default_rng(2)
        replay.random(d.size)
        assert los.all()
        assert shadow.tobytes() == (replay.standard_normal(d.size) * 3.0).tobytes()

    def test_shadowing_statistics(self):
        # zero-mean in dB; std within 5% of 3 dB on LOS links, 4 dB on NLOS
        d = np.full(40_000, 50.0)
        los, shadow = draw_link_states(d, [np.random.default_rng(5)], [d.size])
        for state, std in ((los, 3.0), (~los, 4.0)):
            assert state.sum() > 10_000
            assert abs(shadow[state].mean()) < 0.1
            assert abs(shadow[state].std() - std) < 0.05 * std

    def test_sizes_must_cover_every_link(self):
        d = np.full(10, 50.0)
        for sizes in ([4, 5], [4, 7], []):
            with pytest.raises(ValueError):
                draw_link_states(d, [np.random.default_rng(0)], sizes)

    def test_los_fraction_tracks_probability(self):
        d = np.full(20_000, 40.0)
        los, _ = draw_link_states(d, [np.random.default_rng(11)], [d.size])
        assert los.mean() == pytest.approx(los_probability(40.0), abs=0.02)


class _CountedRng:
    """A numpy Generator that counts the candidate blocks (random() into a
    2-D out) drawn from it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.blocks = 0

    def random(self, size=None, out=None):
        self.blocks += out is not None and out.ndim == 2
        return self.rng.random(size, out=out)

    def standard_normal(self, size=None, out=None):
        return self.rng.standard_normal(size, out=out)


def assert_drops_match_reference(params, tables, rngs, seeds):
    """Each drop equals reference_build_gain_table's from a fresh generator
    of its seed, byte for byte, and so does its generator's end state."""
    assert len(tables) == len(seeds)
    for seed, g, rng in zip(seeds, tables, rngs):
        ref_rng = np.random.default_rng(seed)
        ref = reference_build_gain_table(params, ref_rng)
        for name in ("g_ul", "g_dl", "g_cross"):
            a, b = getattr(g, name), getattr(ref, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (seed, name)
        assert g.positions.ul.tobytes() == ref.positions.ul.tobytes()
        assert g.positions.dl.tobytes() == ref.positions.dl.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBuildGainTable:
    def test_shapes(self):
        g = drop_gain_table(make_params(num_ul=1, num_dl=1, num_channels=2),
                            np.random.default_rng(0))
        assert g.g_ul.shape == (1,) and g.g_dl.shape == (1,) and g.g_cross.shape == (1, 1)

    def test_gains_positive_and_finite(self):
        for g in drop_views(build_gain_table(make_params(),
                                             [np.random.default_rng(s) for s in range(5)])):
            for arr in (g.g_ul, g.g_dl, g.g_cross):
                assert np.all(np.isfinite(arr)) and np.all(arr > 0)

    def test_bit_identical_across_runs(self):
        params = make_params()
        a = drop_gain_table(params, np.random.default_rng(9))
        b = drop_gain_table(params, np.random.default_rng(9))
        assert np.array_equal(a.g_ul, b.g_ul)
        assert np.array_equal(a.g_dl, b.g_dl)
        assert np.array_equal(a.g_cross, b.g_cross)

    def test_no_generators_make_no_drops(self):
        assert drop_views(build_gain_table(make_params(), [])) == []

    def test_a_drop_does_not_depend_on_its_batch(self):
        params = make_params(num_ul=3, num_dl=7, num_channels=7)
        rngs = [np.random.default_rng(s) for s in range(12)]
        tables = (drop_views(build_gain_table(params, rngs[:5]))
                  + drop_views(build_gain_table(params, rngs[5:])))
        assert_drops_match_reference(params, tables, rngs, range(12))

    def test_dump_load_round_trip(self, tmp_path):
        g = drop_gain_table(make_params(), np.random.default_rng(4))
        path = tmp_path / "scenario.json"
        dump_scenario(g, path)
        loaded = load_scenario(path)
        assert np.array_equal(loaded.g_ul, g.g_ul)
        assert np.array_equal(loaded.g_dl, g.g_dl)
        assert np.array_equal(loaded.g_cross, g.g_cross)
        assert np.array_equal(loaded.positions.ul, g.positions.ul)

    @pytest.mark.parametrize("num_ul,num_dl,num_channels,min_dist", [
        (4, 4, 4, 3.0), (25, 25, 25, 3.0), (40, 80, 96, 3.0), (3, 7, 7, 3.0),
        (0, 5, 5, 3.0), (5, 0, 5, 3.0), (100, 100, 100, 3.0),
        (25, 25, 25, 86.0),  # about 7% acceptance
    ])
    # 9 m: every link, cross links too, is within 18 m and so LOS;
    # 2,000 m: LOS probability below 2%, so nearly every link is NLOS
    @pytest.mark.parametrize("radius", [100.0, 9.0, 2000.0])
    def test_matches_per_group_reference(self, num_ul, num_dl, num_channels, min_dist, radius):
        # one batch of 20 drops; min_dist is given for the 100 m cell and
        # scales with the radius
        params = make_params(num_ul=num_ul, num_dl=num_dl, num_channels=num_channels,
                             cell_radius_m=radius,
                             min_bs_ue_distance_m=min_dist * radius / 100.0)
        rngs = [np.random.default_rng(seed) for seed in range(20)]
        assert_drops_match_reference(params, drop_views(build_gain_table(params, rngs)), rngs,
                                     range(20))

    def test_a_drop_whose_first_block_falls_short_draws_another(self):
        # at 60 m about 37% of candidates are accepted; seed 671's first block
        # of 40 holds fewer than the 5 hits needed, the other drops' do not
        params = make_params(num_ul=2, num_dl=3, num_channels=3, min_bs_ue_distance_m=60.0)
        seeds = range(660, 680)
        rngs = [_CountedRng(seed) for seed in seeds]
        tables = drop_views(build_gain_table(params, rngs))
        assert [seed for seed, rng in zip(seeds, rngs) if rng.blocks > 1] == [671]
        assert_drops_match_reference(params, tables, rngs, seeds)

    def test_a_generator_may_make_one_drop_of_a_batch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="one drop per generator"):
            build_gain_table(make_params(), [rng, np.random.default_rng(1), rng])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
    @pytest.mark.parametrize("field", ["g_ul", "g_dl", "g_cross"])
    def test_load_rejects_non_finite_or_non_positive_gain(self, tmp_path, field, bad):
        g = drop_gain_table(make_params(), np.random.default_rng(4))
        arrays = {name: getattr(g, name).copy() for name in ("g_ul", "g_dl", "g_cross")}
        arrays[field].flat[1] = bad
        path = tmp_path / "scenario.json"
        dump_scenario(GainTable(positions=g.positions, **arrays), path)
        with pytest.raises(ValueError, match=field):
            load_scenario(path)
