import itertools
from pathlib import Path

import numpy as np
import pytest

from fdsched.model import GainTable, ScenarioParams, WeightMode, WeightVector
from fdsched import solvers
from fdsched.radio import (
    corner_benefit,
    corner_points,
    corner_tables,
    make_weights,
    objective_value,
)
from fdsched.harness import canned_experiments
from fdsched.scenario import build_gain_table
from fdsched.solvers import (
    STRATEGIES,
    solve_c_hun,
    solve_c_nint,
    solve_p_opt,
    solve_r_epa,
)
from oracles import (chunk_of, corner_se, drop_gain_table, drop_rng, dual_multipliers,
                     evaluate_schedule, modules_after, one_drop, outcome_views, pairs_of,
                     power_candidates, reference_p_opt_schedules, solve_drop, tie_heavy_drop)

NOISE = 2.29086765276777e-15
BETA = 1e-10


def params_with(**kw):
    defaults = dict(num_ul=4, num_dl=4, num_channels=4,
                    noise_power_w=NOISE, si_cancellation=BETA)
    defaults.update(kw)
    return ScenarioParams(**defaults)


def sr(gains):
    """Unit weights: the sum-rate objective."""
    return make_weights(WeightMode.SUM_RATE, gains)


def random_drop(rng, params):
    return drop_gain_table(params, rng)


def table(g_ul, g_dl, g_cross):
    return GainTable(g_ul=np.asarray(g_ul, float), g_dl=np.asarray(g_dl, float),
                     g_cross=np.asarray(g_cross, float))


def reference_p_opt(gains, params, weights, mu, power_levels=0):
    """P-OPT by enumeration, one power-candidate grid per matching (test oracle).

    Every matching is scored on its own grid and kept only if it strictly
    beats the best so far.  solve_p_opt must reach its objective: to the
    byte, SEs included, where the optimum is unique (assert_same_optimum),
    and within rounding where optima tie (assert_tied_optimum).
    power_levels = 0 uses the three corner points and their corner_tables
    SEs; power_levels >= 2 spans a uniform grid over [0, Pmax]^2 through
    the SE formula, to measure what the corner restriction costs.
    """
    num_ul, num_dl = gains.num_ul, gains.num_dl
    tables = corner_tables(gains, params)
    if power_levels:
        ul_levels = np.linspace(0.0, params.p_max_ul_w, power_levels)
        dl_levels = np.linspace(0.0, params.p_max_dl_w, power_levels)
        candidates = [(float(a), float(b)) for a in ul_levels for b in dl_levels]
        cand_se_ul, cand_se_dl = power_candidates(gains, params, candidates)
    else:
        candidates = corner_points(params)
        cand_se_ul, cand_se_dl = corner_se(tables)
    n_cand = len(candidates)
    pair_ws = (1.0 - mu) * (weights.alpha_ul[:, None, None] * cand_se_ul
                            + weights.alpha_dl[None, :, None] * cand_se_dl)
    pair_min = np.minimum(cand_se_ul, cand_se_dl)
    _, _, solo_ws_ul, solo_ws_dl = corner_benefit(tables, weights, mu)
    solo_se_ul, solo_se_dl = tables.solo_se_ul, tables.solo_se_dl
    min_pairs = max(0, num_ul + num_dl - params.num_channels)

    best_value = -np.inf
    best_pairs = []
    best_combo = ()
    for n_pairs in range(min_pairs, min(num_ul, num_dl) + 1):
        for ul_subset in itertools.combinations(range(num_ul), n_pairs):
            ul_solo = [i for i in range(num_ul) if i not in ul_subset]
            ws_ul_solo = float(solo_ws_ul[ul_solo].sum())
            for dl_subset in itertools.combinations(range(num_dl), n_pairs):
                dl_solo = [j for j in range(num_dl) if j not in dl_subset]
                base_ws = ws_ul_solo + float(solo_ws_dl[dl_solo].sum())
                solo_se = np.concatenate([solo_se_ul[ul_solo], solo_se_dl[dl_solo]])
                base_min = float(solo_se.min()) if solo_se.size else np.inf
                for perm in itertools.permutations(dl_subset):
                    pairs = list(zip(ul_subset, perm))
                    shape = (n_cand,) * n_pairs
                    grid_ws = np.full(shape, base_ws)
                    grid_min = np.full(shape, base_min)
                    for axis, (i, j) in enumerate(pairs):
                        view = [1] * n_pairs
                        view[axis] = n_cand
                        grid_ws = grid_ws + pair_ws[i, j].reshape(view)
                        grid_min = np.minimum(grid_min, pair_min[i, j].reshape(view))
                    grid_obj = grid_ws + mu * grid_min
                    flat_idx = int(np.argmax(grid_obj))
                    value = float(grid_obj.flat[flat_idx])
                    if value > best_value:
                        best_value = value
                        best_pairs = pairs
                        best_combo = np.unravel_index(flat_idx, shape) if n_pairs else ()

    partner_ul = np.full(num_ul, -1)
    p_ul = np.full(num_ul, params.p_max_ul_w)
    p_dl = np.full(num_dl, params.p_max_dl_w)
    for (i, j), cand in zip(best_pairs, best_combo):
        partner_ul[i] = j
        p_ul[i], p_dl[j] = candidates[cand]
    return evaluate_schedule(partner_ul, p_ul, p_dl, gains, params, weights, mu)


def assert_same_optimum(got, want):
    """The same objective and SE bytes: every field a record derives from."""
    assert got.objective == want.objective
    assert got.se_ul.tobytes() == want.se_ul.tobytes()
    assert got.se_dl.tobytes() == want.se_dl.tobytes()


def assert_tied_optimum(got, want):
    """The objective within 1e-12 relative.  Where optima tie, the schedules
    may hold the same SEs at different users (or differ in the partner of a
    silenced user), and a sum in another order can read an ulp lower."""
    assert got.objective == pytest.approx(want.objective, rel=1e-12, abs=0.0)


def recorded_assignments(monkeypatch):
    """The (values, UL partners) of every problem that solvers.assign_with_solo
    solves from now on, each of a stacked call's problems on its own.
    P-OPT's scan writes a forbidden pair as a negative entry; every allowed
    entry is a weighted SE, so it is >= 0."""
    calls = []

    def recorded(values, *args, _assign=solvers.assign_with_solo):
        solved = _assign(values, *args)
        if values.ndim == 3:
            calls.extend(zip(values, solved))
        else:
            calls.append((values, solved))
        return solved

    monkeypatch.setattr(solvers, "assign_with_solo", recorded)
    return calls


def assert_same_decisions(got, want):
    assert got.partner_ul.tolist() == want.partner_ul.tolist()
    assert got.p_ul.tolist() == want.p_ul.tolist()
    assert got.p_dl.tolist() == want.p_dl.tolist()
    assert got.objective == want.objective or (np.isnan(got.objective)
                                               and np.isnan(want.objective))


P_OPT_SHAPES = ((4, 4, 4), (3, 3, 4), (2, 4, 5), (1, 4, 4), (0, 3, 3), (3, 0, 3),
                (5, 5, 5), (2, 3, 5), (4, 5, 6), (2, 2, 2))


class TestPOpt:
    def test_single_pair_without_interference(self):
        g = table([1e-8], [1e-8], [[1e-30]])
        params = params_with(num_ul=1, num_dl=1, num_channels=1, si_cancellation=1e-30)
        out = one_drop(solve_p_opt, g, params, [(sr(g), 0.0)])[0]
        assert out.partner_ul.tolist() == [0]
        assert out.p_ul[0] == params.p_max_ul_w
        assert out.p_dl[0] == params.p_max_dl_w

    def test_huge_cross_gain_prefers_the_better_configuration(self):
        # with two channels available the pair may be split into two
        # interference-free solos; P-OPT must return whichever wins
        g = table([1e-8], [1e-8], [[1.0]])
        params = params_with(num_ul=1, num_dl=1, num_channels=2)
        w = sr(g)
        out = one_drop(solve_p_opt, g, params, [(w, 0.0)])[0]
        candidates = []
        solo = evaluate_schedule([-1], np.array([params.p_max_ul_w]),
                                 np.array([params.p_max_dl_w]), g, params, w, 0.0)
        paired_off = evaluate_schedule([0], np.array([params.p_max_ul_w]), np.array([0.0]),
                                       g, params, w, 0.0)
        expected = max(solo.objective, paired_off.objective)
        assert out.objective >= expected - 1e-12
        assert out.partner_ul.tolist() == [-1]  # two solos dominate here

    def test_respects_channel_budget_at_full_load(self):
        params = params_with()
        g = random_drop(np.random.default_rng(0), params)
        out = one_drop(solve_p_opt, g, params, [(sr(g), 0.1)])[0]
        assert len(pairs_of(out.partner_ul)) == 4  # 8 users on 4 channels

    def test_channel_budget_guard(self):
        # 5+5 users cannot fit 4 channels: 6 forced pairs, at most 5 possible
        params = params_with()
        g = table(np.full(5, 1e-8), np.full(5, 1e-8), np.full((5, 5), 1e-10))
        with pytest.raises(ValueError, match="channel budget infeasible: 5\\+5 users on 4"):
            one_drop(solve_p_opt, g, params, [(sr(g), 0.5)])

    @pytest.mark.parametrize("g_dl0, g_x00", [(np.inf, np.inf), (1e-8, np.nan)])
    def test_nan_benefit_rejected(self, g_dl0, g_x00):
        # a NaN SE at pair (0, 0)'s (Pmax, Pmax) corner reaches the max-sum
        # assignment, which refuses non-finite scores, as C-HUN's does
        params = params_with(num_ul=2, num_dl=2, num_channels=2)
        g_cross = np.full((2, 2), 1e-10)
        g_cross[0, 0] = g_x00
        g = table([1e-8, 2e-8], [g_dl0, 2e-8], g_cross)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            one_drop(solve_p_opt, g, params, [(sr(g), 0.5)])

    @pytest.mark.parametrize("shape", P_OPT_SHAPES, ids=lambda s: "%d+%d/%d" % s)
    def test_mu_zero_takes_c_hun_decisions(self, shape, monkeypatch):
        # at mu = 0 the max-sum schedule is the optimum and C-HUN's; its sum
        # bounds every threshold's, so P-OPT solves one assignment
        num_ul, num_dl, channels = shape
        params = params_with(num_ul=num_ul, num_dl=num_dl, num_channels=channels)
        rng = np.random.default_rng(40 + sum(shape))
        calls = recorded_assignments(monkeypatch)
        for g in (random_drop(rng, params), tie_heavy_drop(rng, num_ul, num_dl)):
            for mode in WeightMode:
                w = make_weights(mode, g)
                calls.clear()
                got = one_drop(solve_p_opt, g, params, [(w, 0.0)])[0]
                assert len(calls) == 1
                assert_same_decisions(got, one_drop(solve_c_hun, g, params, [(w, 0.0)])[0])

    def test_beats_exhaustive_reference_on_small_instances(self):
        # independent oracle: enumerate matchings and corners directly
        rng = np.random.default_rng(1)
        params = params_with(num_ul=2, num_dl=2, num_channels=4)
        corners = ((params.p_max_ul_w, params.p_max_dl_w),
                   (params.p_max_ul_w, 0.0), (0.0, params.p_max_dl_w))
        for _ in range(10):
            g = random_drop(rng, params)
            w = sr(g)
            best = -np.inf
            for n_pairs in range(0, 3):
                for us in itertools.combinations(range(2), n_pairs):
                    for ds in itertools.permutations(range(2), n_pairs):
                        partner_ul = np.full(2, -1)
                        partner_ul[list(us)] = ds
                        for combo in itertools.product(range(3), repeat=n_pairs):
                            p_ul = np.full(2, params.p_max_ul_w)
                            p_dl = np.full(2, params.p_max_dl_w)
                            for (i, j), c in zip(zip(us, ds), combo):
                                p_ul[i], p_dl[j] = corners[c]
                            out = evaluate_schedule(partner_ul, p_ul, p_dl, g, params, w, 0.7)
                            best = max(best, out.objective)
            got = one_drop(solve_p_opt, g, params, [(w, 0.7)])[0]
            assert got.objective == pytest.approx(best, rel=1e-12)

    def test_power_grid_refinement_never_loses(self):
        rng = np.random.default_rng(2)
        params = params_with(num_ul=2, num_dl=2, num_channels=2)
        for _ in range(5):
            g = random_drop(rng, params)
            corners = one_drop(solve_p_opt, g, params, [(sr(g), 0.8)])[0].objective
            refined = reference_p_opt(g, params, sr(g), 0.8, power_levels=6).objective
            assert refined >= corners - 1e-12


class TestPOptMatchesLoopReference:
    @pytest.mark.parametrize("shape", P_OPT_SHAPES, ids=lambda s: "%d+%d/%d" % s)
    def test_same_decisions(self, shape):
        # a random drop at mu < 1 has one optimum, so the outcome is the
        # reference's to the byte; tie-heavy and flat drops and mu = 1
        # (max-min alone) have tied optima, whose objective must be reached,
        # and at mu = 1 with a weighted sum no smaller than the reference's
        num_ul, num_dl, channels = shape
        rng = np.random.default_rng(sum(shape))
        for mode in (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION):
            for mu in (0.0, 0.1, 0.5, 0.9, 1.0):
                params = params_with(num_ul=num_ul, num_dl=num_dl, num_channels=channels)
                drops = [random_drop(rng, params), tie_heavy_drop(rng, num_ul, num_dl),
                         table(np.full(num_ul, 1e-8), np.full(num_dl, 1e-8),
                               np.full((num_ul, num_dl), 1e-10))]
                for n, g in enumerate(drops):
                    w = make_weights(mode, g)
                    got = one_drop(solve_p_opt, g, params, [(w, mu)])[0]
                    want = reference_p_opt(g, params, w, mu)
                    check = assert_same_optimum if n == 0 and mu < 1 else assert_tied_optimum
                    check(got, want)
                    if mu == 1.0:
                        got_sum, want_sum = (w.alpha_ul @ o.se_ul + w.alpha_dl @ o.se_dl
                                             for o in (got, want))
                        assert got_sum >= want_sum * (1 - 1e-12)

    @pytest.mark.parametrize("shape", P_OPT_SHAPES, ids=lambda s: "%d+%d/%d" % s)
    def test_same_optimum_at_low_self_interference(self, shape):
        # at -130 dB full duplex pays, so the optimum often silences no one
        # and comes from the threshold scan even at small mu
        num_ul, num_dl, channels = shape
        params = params_with(num_ul=num_ul, num_dl=num_dl, num_channels=channels,
                             si_cancellation=1e-13)
        rng = np.random.default_rng(130 + sum(shape))
        for _ in range(4):
            g = random_drop(rng, params)
            for mode in WeightMode:
                w = make_weights(mode, g)
                for mu in (0.1, 0.5, 0.9):
                    assert_same_optimum(one_drop(solve_p_opt, g, params, [(w, mu)])[0],
                                        reference_p_opt(g, params, w, mu))

    def test_criterion_2_instances(self):
        # acceptance criterion 2's 200 drops at mu 0.1, 0.5 and 0.9
        params = ScenarioParams(num_ul=4, num_dl=4, num_channels=4)
        mus = (0.1, 0.5, 0.9)
        for k in range(200):
            g = drop_gain_table(params, drop_rng(202, k, 0))
            w = sr(g)
            for mu, got in zip(mus, one_drop(solve_p_opt, g, params, [(w, mu) for mu in mus])):
                assert_same_optimum(got, reference_p_opt(g, params, w, mu))

    def test_scan_forbids_pairs_at_path_loss_magnitudes(self, monkeypatch):
        # -130 dB SI and PL weights (1/g, up to about 1e11) with mu near 1,
        # where the min term counts: the winning threshold forbids pairs
        # with a penalty near -1e13, and the winner is still the reference's
        params = params_with(si_cancellation=1e-13)
        calls = recorded_assignments(monkeypatch)
        won = 0
        for seed in range(40):
            g = random_drop(np.random.default_rng(seed), params)
            w = make_weights(WeightMode.PATH_LOSS_COMPENSATION, g)
            for mu in (1.0 - 1e-12, 1.0 - 1e-11):
                calls.clear()
                got = one_drop(solve_p_opt, g, params, [(w, mu)])[0]
                assert_same_optimum(got, reference_p_opt(g, params, w, mu))
                won += any(values.min() < 0 and partner.tolist() == got.partner_ul.tolist()
                           and all(values[i, j] >= 0 for i, j in pairs_of(partner))
                           for values, partner in calls)
        assert won >= 5

    def test_infeasible_threshold(self, monkeypatch):
        # at full load every user pairs, so a threshold above the best
        # bottleneck has no feasible assignment, here although every user
        # keeps an allowed partner: the one found pairs a forbidden pair,
        # and the scan ends there
        params = params_with(si_cancellation=1e-13)
        g = random_drop(np.random.default_rng(9), params)
        calls = recorded_assignments(monkeypatch)
        got = one_drop(solve_p_opt, g, params, [(sr(g), 0.9)])[0]
        infeasible = [values for values, partner in calls
                      if any(values[i, j] < 0 for i, j in pairs_of(partner))]
        assert len(infeasible) == 1
        assert (infeasible[0] >= 0).any(axis=0).all() and (infeasible[0] >= 0).any(axis=1).all()
        assert_same_optimum(got, reference_p_opt(g, params, sr(g), 0.9))

    @pytest.mark.parametrize("g_x00", [np.inf])
    def test_matchings_with_nan_cells_are_skipped_alike(self, g_x00):
        # an infinite cross gain zeroes pair (0, 0)'s (Pmax, Pmax) DL SE, and
        # its zero-power UL corner reads no interference, so no cell is NaN
        # (a NaN cell is rejected: TestPOpt.test_nan_benefit_rejected)
        g_cross = np.full((3, 3), 1e-10)
        g_cross[0, 0] = g_x00
        g = table([1e-8, 2e-8, 3e-8], [3e-8, 2e-8, 1e-8], g_cross)
        params = params_with(num_ul=3, num_dl=3, num_channels=3)
        for mu in (0.1, 0.9):
            with np.errstate(invalid="ignore"):
                assert_same_decisions(one_drop(solve_p_opt, g, params, [(sr(g), mu)])[0],
                                      reference_p_opt(g, params, sr(g), mu))


ALL_MUS = (0.0, 0.1, 0.5, 0.9, 1.0)
BOTH_MODES = (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION)


def seeded_chunk(params, drops):
    """A chunk of drops as a run draws them (seed 33)."""
    return build_gain_table(params, [drop_rng(33, k, 0) for k in range(drops)])


def tied_chunk(params, drops):
    """A chunk of tie-heavy drops, where many schedules score alike."""
    rng = np.random.default_rng(34)
    tied = [tie_heavy_drop(rng, params.num_ul, params.num_dl) for _ in range(drops)]
    return GainTable(*(np.stack([getattr(g, name) for g in tied])
                       for name in ("g_ul", "g_dl", "g_cross")))


class TestChunkScanMatchesDropScans:
    """P-OPT's threshold scans in rounds over a chunk against each drop's
    scans one threshold at a time (tests/oracles.py): the same (D, K, I) UL
    partners and corners, array for array, from exactly as many threshold
    assignments as the drops' caches hold, with at most one problem per
    (drop, weight vector) in a round."""

    @pytest.mark.parametrize("params, chunk, drops, modes, mus", [
        (canned_experiments("fig2").params, seeded_chunk, 120, (WeightMode.SUM_RATE,),
         (0.1, 0.5, 0.9)),
        (params_with(num_ul=25, num_dl=25, num_channels=25, si_cancellation=1e-12),
         seeded_chunk, 12, BOTH_MODES, ALL_MUS),
        (params_with(num_ul=25, num_dl=25, num_channels=25, si_cancellation=1e-13),
         seeded_chunk, 12, BOTH_MODES, ALL_MUS),
        (params_with(num_ul=10, num_dl=10, num_channels=14, si_cancellation=1e-13),
         seeded_chunk, 30, BOTH_MODES, ALL_MUS),
        (params_with(num_ul=3, num_dl=6, num_channels=7, si_cancellation=1e-13),
         seeded_chunk, 40, BOTH_MODES, ALL_MUS),
        (params_with(num_ul=0, num_dl=4, num_channels=4), seeded_chunk, 10, BOTH_MODES,
         ALL_MUS),
        (params_with(num_ul=4, num_dl=5, num_channels=6, si_cancellation=1e-13), tied_chunk,
         40, BOTH_MODES, ALL_MUS),
    ], ids=["fig2", "25+25@-120", "25+25@-130", "10+10/14", "3+6/7", "0+4", "tied"])
    def test_same_schedules_from_as_many_assignments(self, monkeypatch, params, chunk, drops,
                                                     modes, mus):
        gains = chunk(params, drops)
        weights = {mode: make_weights(mode, gains) for mode in modes}
        objectives = [(weights[mode], mu) for mode in modes for mu in mus]
        tables = corner_tables(gains, params)
        *want, solved = reference_p_opt_schedules(tables, params, objectives)
        stacks = []
        monkeypatch.setattr(solvers, "assign_with_solo",
                            lambda values, *args, _assign=solvers.assign_with_solo:
                            stacks.append(len(values)) or _assign(values, *args))
        got = solvers._optimum(tables, params, objectives)
        for a, b in zip(got, want):
            assert a.shape == b.shape == (drops, len(objectives), params.num_ul)
            assert a.tolist() == b.tolist()
        plans = drops * len(modes)
        assert stacks[0] == plans and sum(stacks[1:]) == solved
        assert all(0 < n <= plans for n in stacks[1:])
        if params.num_ul == 25 and params.si_cancellation == 1e-13:
            assert len(stacks) > 3   # scans of several rounds


class TestPOptAtScale:
    """Beyond the reference's reach: at 25+25, P-OPT must score at least as
    well as every heuristic and every sampled corner schedule."""

    @pytest.mark.parametrize("si_db", [-100, -130])
    @pytest.mark.parametrize("mode", list(WeightMode), ids=lambda m: m.value)
    def test_no_schedule_beats_it(self, si_db, mode):
        params = params_with(num_ul=25, num_dl=25, num_channels=25,
                             si_cancellation=10 ** (si_db / 10))
        points = corner_points(params)
        rng = np.random.default_rng(2525)
        mus = (0.1, 0.5, 0.9, 1.0)
        for _ in range(2):
            g = random_drop(rng, params)
            w = make_weights(mode, g)
            objectives = [(w, mu) for mu in mus]
            top = [o.objective for o in one_drop(solve_p_opt, g, params, objectives)]
            ceiling = [t + 1e-12 * abs(t) for t in top]
            for outcomes in (one_drop(solve_c_hun, g, params, objectives),
                             one_drop(solve_c_nint, g, params, objectives),
                             one_drop(solve_r_epa, g, params, objectives, rng)):
                assert all(o.objective <= c for o, c in zip(outcomes, ceiling))
            for n in range(200):
                # a random perfect matching, half the samples at (Pmax, Pmax)
                corners = rng.integers(0, 3, 25) if n % 2 else np.zeros(25, int)
                powers = np.array([points[c] for c in corners])
                partner_ul = rng.permutation(25)
                p_dl = np.empty(25)
                p_dl[partner_ul] = powers[:, 1]
                sample = evaluate_schedule(partner_ul, powers[:, 0], p_dl, g, params, w, 0.0)
                for mu, c in zip(mus, ceiling):
                    assert objective_value(sample.se_ul, sample.se_dl, sample.min_se, w, mu) <= c


class TestCHun:
    # scipy is a test-only dependency: importing scipy.optimize would add
    # about half a second and tens of MB to every run's start-up

    def test_package_import_loads_no_scipy(self):
        assert modules_after("import fdsched, fdsched.cli", "scipy") == []

    def test_solve_does_not_import_scipy(self):
        assert modules_after(
            "import numpy as np\n"
            "import fdsched as fd\n"
            "params = fd.ScenarioParams(num_ul=5, num_dl=7, num_channels=9)\n"
            "gains = fd.build_gain_table(params, [np.random.default_rng(1)])\n"
            "weights = fd.make_weights(fd.WeightMode.SUM_RATE, gains)\n"
            "fd.solve_c_hun(gains, None, params, [(weights, 0.5)])\n"
            "params = fd.ScenarioParams(num_ul=25, num_dl=25, num_channels=25)\n"
            "gains = fd.build_gain_table(params, [np.random.default_rng(1)])\n"
            "weights = fd.make_weights(fd.WeightMode.SUM_RATE, gains)\n"
            "fd.solve_p_opt(gains, None, params, [(weights, 0.9)])\n", "scipy") == []

    def test_matches_p_opt_without_interference(self):
        params = params_with(si_cancellation=1e-30)
        rng = np.random.default_rng(3)
        g0 = random_drop(rng, params)
        g = GainTable(g0.g_ul, g0.g_dl, np.full_like(g0.g_cross, 1e-30))
        assert one_drop(solve_c_hun, g, params, [(sr(g), 0.3)])[0].objective == pytest.approx(
            one_drop(solve_p_opt, g, params, [(sr(g), 0.3)])[0].objective, rel=1e-9)

    def test_deterministic(self):
        params = params_with()
        g = random_drop(np.random.default_rng(4), params)
        a = one_drop(solve_c_hun, g, params, [(sr(g), 0.9)])[0]
        b = one_drop(solve_c_hun, g, params, [(sr(g), 0.9)])[0]
        assert np.array_equal(a.partner_ul, b.partner_ul)
        assert np.array_equal(a.p_ul, b.p_ul)
        assert a.objective == b.objective

    def test_pairs_fill_the_channel_budget(self):
        params = params_with()
        g = random_drop(np.random.default_rng(5), params)
        assert len(pairs_of(one_drop(solve_c_hun, g, params, [(sr(g), 0.1)])[0].partner_ul)) == 4

    def test_solo_users_allowed_with_spare_channels(self):
        params = params_with(num_ul=2, num_dl=2, num_channels=4)
        g = table([1e-8, 1e-8], [1e-8, 1e-8], np.full((2, 2), 1e-6))
        out = one_drop(solve_c_hun, g, params, [(sr(g), 0.0)])[0]
        assert out.partner_ul.tolist() == [-1, -1]  # crushing cross gain, keep apart

    def test_one_direction_empty(self):
        params = params_with(num_ul=1, num_dl=0, num_channels=1)
        g = GainTable(g_ul=np.array([1e-8]), g_dl=np.zeros(0),
                      g_cross=np.zeros((1, 0)))
        out = one_drop(solve_c_hun, g, params, [(sr(g), 0.2)])[0]
        assert out.partner_ul.tolist() == [-1]
        assert out.p_ul[0] == params.p_max_ul_w
        assert out.se_dl.size == 0
        assert out.min_se == out.se_ul[0]

    @pytest.mark.parametrize("strategy", [solve_c_hun, solve_c_nint])
    @pytest.mark.parametrize("num_channels", [3, 5])
    def test_no_ul_users_leaves_every_dl_user_solo(self, strategy, num_channels):
        params = params_with(num_ul=0, num_dl=3, num_channels=num_channels)
        g = random_drop(np.random.default_rng(9), params)
        out = one_drop(strategy, g, params, [(sr(g), 0.5)])[0]
        assert out.partner_ul.shape == (0,)   # no UL user, so no pair
        assert np.all(out.p_dl == params.p_max_dl_w)
        assert out.se_ul.size == 0
        assert np.all(out.se_dl > 0)

    @pytest.mark.parametrize("g_dl0, g_x00", [(np.inf, np.inf), (1e-8, np.nan)])
    def test_nan_benefit_rejected(self, g_dl0, g_x00):
        # inf / inf (or a NaN cross gain) makes pair (0, 0)'s DL SE NaN at
        # the (Pmax, Pmax) corner; the assignment refuses non-finite scores
        params = params_with(num_ul=2, num_dl=2, num_channels=2)
        g_cross = np.full((2, 2), 1e-10)
        g_cross[0, 0] = g_x00
        g = table([1e-8, 2e-8], [g_dl0, 2e-8], g_cross)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            one_drop(solve_c_hun, g, params, [(sr(g), 0.5)])


class TestCNInt:
    def test_identical_to_c_hun_when_cross_gains_are_zero(self):
        params = params_with()
        g0 = random_drop(np.random.default_rng(6), params)
        g = GainTable(g0.g_ul, g0.g_dl, np.zeros_like(g0.g_cross))
        a = one_drop(solve_c_hun, g, params, [(sr(g), 0.5)])[0]
        b = one_drop(solve_c_nint, g, params, [(sr(g), 0.5)])[0]
        assert np.array_equal(a.partner_ul, b.partner_ul)
        assert a.objective == pytest.approx(b.objective, rel=1e-12)

    def test_planned_dl_rates_never_below_realized(self):
        params = params_with()
        for seed in range(5):
            g = random_drop(np.random.default_rng(seed), params)
            out = one_drop(solve_c_nint, g, params, [(sr(g), 0.9)])[0]
            blind = GainTable(g.g_ul, g.g_dl, np.zeros_like(g.g_cross))
            planned = evaluate_schedule(out.partner_ul, out.p_ul, out.p_dl, blind, params,
                                        sr(g), 0.9)
            assert np.all(planned.se_dl >= out.se_dl - 1e-12)

    def test_realized_objective_not_better_than_c_hun_on_average(self):
        params = params_with()
        rng = np.random.default_rng(7)
        chun, cnint = [], []
        for _ in range(40):
            g = random_drop(rng, params)
            chun.append(one_drop(solve_c_hun, g, params, [(sr(g), 0.9)])[0].objective)
            cnint.append(one_drop(solve_c_nint, g, params, [(sr(g), 0.9)])[0].objective)
        assert np.mean(cnint) < np.mean(chun)


class TestREpa:
    def test_single_pair_always_formed(self):
        params = params_with(num_ul=1, num_dl=1, num_channels=1)
        g = table([1e-8], [1e-8], [[1e-9]])
        out = one_drop(solve_r_epa, g, params, [(sr(g), 0.5)], np.random.default_rng(0))[0]
        assert pairs_of(out.partner_ul) == [(0, 0)]
        assert out.p_ul[0] == params.p_max_ul_w
        assert out.p_dl[0] == params.p_max_dl_w

    def test_fixed_seed_reproducible(self):
        params = params_with()
        g = random_drop(np.random.default_rng(8), params)
        a = one_drop(solve_r_epa, g, params, [(sr(g), 0.5)], np.random.default_rng(123))[0]
        b = one_drop(solve_r_epa, g, params, [(sr(g), 0.5)], np.random.default_rng(123))[0]
        assert np.array_equal(a.partner_ul, b.partner_ul)

    def test_pairs_maximally_when_sides_differ(self):
        params = params_with(num_ul=2, num_dl=4, num_channels=4)
        g = random_drop(np.random.default_rng(9), params)
        out = one_drop(solve_r_epa, g, params, [(sr(g), 0.5)], np.random.default_rng(1))[0]
        assert len(pairs_of(out.partner_ul)) == 2
        assert np.all(out.p_ul == params.p_max_ul_w)
        assert np.all(out.p_dl == params.p_max_dl_w)

    def test_matchings_are_roughly_uniform(self):
        params = params_with(num_ul=2, num_dl=2, num_channels=2)
        g = random_drop(np.random.default_rng(10), params)
        rng = np.random.default_rng(11)
        counts = {(0, 1): 0, (1, 0): 0}
        for _ in range(400):
            out = one_drop(solve_r_epa, g, params, [(sr(g), 0.5)], rng)[0]
            counts[tuple(out.partner_ul.tolist())] += 1
        assert abs(counts[(0, 1)] - 200) < 60

    @pytest.mark.parametrize("num_ul, num_dl", [(2, 4), (4, 4), (5, 3)])
    def test_pairing_follows_one_permutation(self, num_ul, num_dl):
        # one rng.permutation(max(I, J)): user k of the smaller side pairs
        # user perm[k] of the larger side, and nothing else is drawn
        params = params_with(num_ul=num_ul, num_dl=num_dl, num_channels=max(num_ul, num_dl))
        g = random_drop(np.random.default_rng(12), params)
        rng, ref_rng = np.random.default_rng(2024), np.random.default_rng(2024)
        out = one_drop(solve_r_epa, g, params, [(sr(g), 0.5)], rng)[0]
        perm = ref_rng.permutation(max(num_ul, num_dl)).tolist()
        pairs = [(k, perm[k]) if num_ul <= num_dl else (perm[k], k)
                 for k in range(min(num_ul, num_dl))]
        assert pairs_of(out.partner_ul) == sorted(pairs)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_average_sum_se_below_c_hun(self):
        params = params_with()
        rng = np.random.default_rng(16)
        chun, repa = [], []
        for _ in range(40):
            g = random_drop(rng, params)
            chun.append(one_drop(solve_c_hun, g, params, [(sr(g), 0.9)])[0].sum_se)
            repa.append(one_drop(solve_r_epa, g, params, [(sr(g), 0.9)],
                                 np.random.default_rng(0))[0].sum_se)
        assert np.mean(repa) < np.mean(chun)


class TestObjectiveFree:
    """R-EPA draws one schedule per solve and rescores it for each
    objective, so its decision must not move with mu or the weights."""

    @pytest.mark.parametrize("name", ["R-EPA"])
    @pytest.mark.parametrize("num_ul, num_dl, num_channels", [(4, 4, 4), (3, 5, 6), (5, 2, 7)])
    def test_decision_ignores_mu_and_weights(self, name, num_ul, num_dl, num_channels):
        params = params_with(num_ul=num_ul, num_dl=num_dl, num_channels=num_channels)
        for seed in range(5):
            g = random_drop(np.random.default_rng(seed), params)
            outcomes = []
            for mode in WeightMode:
                for mu in (0.0, 0.1, 0.5, 0.9, 1.0):
                    outcomes.append(solve_drop(name, g, params, [(mode, mu)],
                                               np.random.default_rng(100 + seed))[0])
            first = outcomes[0]
            for out in outcomes[1:]:
                assert np.array_equal(out.partner_ul, first.partner_ul)
                assert np.array_equal(out.p_ul, first.p_ul)
                assert np.array_equal(out.p_dl, first.p_dl)
                assert np.array_equal(out.se_ul, first.se_ul)
                assert np.array_equal(out.se_dl, first.se_dl)


MIXED_OBJECTIVES = [(WeightMode.SUM_RATE, 0.0), (WeightMode.SUM_RATE, 0.1),
                    (WeightMode.PATH_LOSS_COMPENSATION, 0.5), (WeightMode.SUM_RATE, 0.9),
                    (WeightMode.PATH_LOSS_COMPENSATION, 1.0)]


def shared_exactly_when_equal(outcomes, corners=None):
    """How many pairs of objectives of a drop share a schedule row, after
    checking that two share one exactly when their partner and corner bytes
    are equal.  Without corners given, powers stand in for them: a pair's
    corner fixes its powers, and a user alone is at corner 0."""
    shared = 0
    for d, rows in enumerate(outcomes.schedule.tolist()):
        for n, s in enumerate(rows):
            for m, t in enumerate(rows[:n]):
                if corners is None:
                    same = all(a[s].tobytes() == a[t].tobytes()
                               for a in (outcomes.partner_ul, outcomes.p_ul, outcomes.p_dl))
                else:
                    same = (outcomes.partner_ul[s].tobytes() == outcomes.partner_ul[t].tobytes()
                            and corners[d][n] == corners[d][m])
                assert (s == t) == same
                shared += same
    return shared


def assert_same_outcome(got, want):
    assert_same_decisions(got, want)
    assert got.se_ul.tobytes() == want.se_ul.tobytes()
    assert got.se_dl.tobytes() == want.se_dl.tobytes()
    for field in ("sum_se", "min_se", "jain"):
        assert getattr(got, field) == getattr(want, field)


class TestSeveralObjectives:
    """Solving a drop for several objectives at once shares the corner
    tables, P-OPT's set-up and R-EPA's draw across them; every outcome must
    equal that of solving its objective alone, bit for bit."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("shape", P_OPT_SHAPES, ids=lambda s: "%d+%d/%d" % s)
    def test_each_outcome_equals_its_own_solve(self, name, shape):
        num_ul, num_dl, channels = shape
        params = params_with(num_ul=num_ul, num_dl=num_dl, num_channels=channels)
        rng = np.random.default_rng(100 + sum(shape))
        for g in (random_drop(rng, params), tie_heavy_drop(rng, num_ul, num_dl)):
            together = solve_drop(name, g, params, MIXED_OBJECTIVES, np.random.default_rng(5))
            assert len(together) == len(MIXED_OBJECTIVES)
            for objective, got in zip(MIXED_OBJECTIVES, together):
                [alone] = solve_drop(name, g, params, [objective], np.random.default_rng(5))
                assert_same_outcome(got, alone)

    @pytest.mark.parametrize("name", ["P-OPT", "C-HUN"])
    def test_rescored_outcomes_equal_a_fresh_evaluation(self, name):
        # an objective whose schedule an earlier one chose shares that
        # schedule's row and is only rescored; every field must equal the
        # evaluation of its own schedule under its own objective
        fig2 = [(WeightMode.SUM_RATE, mu) for mu in (0.1, 0.5, 0.9)]
        repeats = 0
        for shape in P_OPT_SHAPES:
            num_ul, num_dl, channels = shape
            params = params_with(num_ul=num_ul, num_dl=num_dl, num_channels=channels)
            rng = np.random.default_rng(300 + sum(shape))
            for g in (random_drop(rng, params), tie_heavy_drop(rng, num_ul, num_dl)):
                for objectives in (MIXED_OBJECTIVES, fig2):
                    solved = solvers.solve(name, chunk_of(g), None, params, objectives)
                    for (mode, mu), got in zip(objectives, outcome_views(solved)):
                        fresh = evaluate_schedule(got.partner_ul, got.p_ul, got.p_dl, g,
                                                  params, make_weights(mode, g), mu)
                        assert_same_outcome(got, fresh)
                    repeats += shared_exactly_when_equal(solved)
        assert repeats > 0

    def test_p_opt_evaluates_each_winners_schedule_once(self, monkeypatch):
        rows = []

        def counted(gains, params, drops, *schedules, _metrics=solvers.outcome_metrics):
            rows.append(len(drops))
            return _metrics(gains, params, drops, *schedules)

        monkeypatch.setattr(solvers, "outcome_metrics", counted)
        fig2 = [(WeightMode.SUM_RATE, mu) for mu in (0.1, 0.5, 0.9)]
        params = params_with()
        rng = np.random.default_rng(41)
        shared = 0
        for _ in range(20):
            rows.clear()
            solved = solvers.solve("P-OPT", chunk_of(random_drop(rng, params)), None, params,
                                   fig2)
            # objectives with one winner share its evaluated row
            assert rows == [len(solved.sum_se)]
            shared += shared_exactly_when_equal(solved)
        assert shared > 0

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_out_of_range_mu_anywhere_fails_before_weights(self, name, bad, monkeypatch):
        def no_weights(*args):
            raise AssertionError("weights made before every mu was checked")

        params = params_with()
        g = random_drop(np.random.default_rng(17), params)
        monkeypatch.setattr(solvers, "make_weights", no_weights)
        for at in range(3):
            objectives = [(WeightMode.SUM_RATE, 0.5), (WeightMode.PATH_LOSS_COMPENSATION, 0.1)]
            objectives.insert(at, (WeightMode.SUM_RATE, bad))
            with pytest.raises(ValueError, match="mu must lie in"):
                solve_drop(name, g, params, objectives, np.random.default_rng(0))


class TestSilencedPartnerRepeats:
    """_outcomes evaluates a schedule once per distinct partner and power
    bytes of a drop.  Schedules that differ only in the partner of a
    silenced user give the same SINRs but are evaluated separately; each
    outcome still reports its own schedule."""

    PMAX = ScenarioParams().p_max_ul_w

    def schedules(self, silenced):
        # 2 UL, 3 DL: the silenced user is paired in the first schedule and
        # moves to another partner (or none) in the second; corners index
        # corner_points: 1 silences the DL user of a pair, 2 the UL user
        if silenced == "ul":
            return [[0, 2], [1, 2]], [[2, 0], [2, 0]]
        if silenced == "dl":
            return [[0, -1], [-1, 0]], [[1, 0], [0, 1]]
        if silenced == "same":   # equal partners and powers
            return [[0, 2], [0, 2]], [[0, 0], [0, 0]]
        return [[0, 2], [1, 2]], [[0, 0], [0, 0]]   # an active pair moves: a real change

    @pytest.mark.parametrize("silenced, evaluations",
                             [("ul", 2), ("dl", 2), (None, 2), ("same", 1)])
    def test_one_evaluation_and_own_schedules(self, silenced, evaluations, monkeypatch):
        params = params_with(num_ul=2, num_dl=3, num_channels=5)
        g = random_drop(np.random.default_rng(23), params)
        rows = []

        def counted(gains, params, drops, *schedules, _metrics=solvers.outcome_metrics):
            rows.append(len(drops))
            return _metrics(gains, params, drops, *schedules)

        monkeypatch.setattr(solvers, "outcome_metrics", counted)
        partners, corners = self.schedules(silenced)
        weights = [sr(g), make_weights(WeightMode.PATH_LOSS_COMPENSATION, g)]
        objectives = [(w, mu) for w, mu in zip(weights, (0.5, 0.9))]
        chunked = [(WeightVector(w.alpha_ul[None], w.alpha_dl[None]), mu) for w, mu in objectives]
        solved = solvers._outcomes(chunk_of(g), params, chunked, np.array([partners]),
                                   np.array([corners], dtype=np.int8))
        assert rows == [evaluations]
        assert shared_exactly_when_equal(solved, [corners]) == (evaluations == 1)
        points = corner_points(params)
        for partner, corner, (w, mu), got in zip(partners, corners, objectives,
                                                 outcome_views(solved)):
            p_ul, p_dl = [self.PMAX] * 2, [self.PMAX] * 3
            for (i, j), c in zip(pairs_of(partner), [c for j, c in zip(partner, corner) if j >= 0]):
                p_ul[i], p_dl[j] = points[c]
            assert got.partner_ul.tolist() == partner
            assert got.p_ul.tolist() == p_ul and got.p_dl.tolist() == p_dl
            assert_same_outcome(got, evaluate_schedule(partner, np.array(p_ul), np.array(p_dl),
                                                       g, params, w, mu))


class TestOutcomeArrays:
    """A chunk's Outcomes holds each drop's distinct schedules once: every
    array is read-only, and the objectives of one schedule (the same
    partners and powers on one drop) share its row."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_read_only_and_shared_by_a_schedule(self, name):
        params = params_with(num_ul=3, num_dl=5, num_channels=6)
        gains = build_gain_table(params, [drop_rng(9, k, 0) for k in range(12)])
        rngs = [drop_rng(9, k, 1) for k in range(12)]
        solved = solvers.solve(name, gains, rngs, params, MIXED_OBJECTIVES)
        assert not any(a.flags.writeable for a in vars(solved).values())
        with pytest.raises(ValueError, match="read-only"):
            solved.se_ul[...] = 0.0
        assert shared_exactly_when_equal(solved) > 0


class TestOptimalitySandwich:
    def test_heuristics_never_beat_exhaustive(self):
        rng = np.random.default_rng(12)
        params = params_with()
        for mu in (0.1, 0.5, 0.9):
            for _ in range(15):
                g = random_drop(rng, params)
                w = sr(g)
                top = one_drop(solve_p_opt, g, params, [(w, mu)])[0].objective
                assert one_drop(solve_c_hun, g, params, [(w, mu)])[0].objective <= top + 1e-12
                assert one_drop(solve_c_nint, g, params, [(w, mu)])[0].objective <= top + 1e-12
                assert one_drop(solve_r_epa, g, params, [(w, mu)],
                                np.random.default_rng(0))[0].objective <= top + 1e-12


class TestDualMultipliers:
    def test_mass_on_the_minimum(self):
        lam = dual_multipliers([3.0, 1.0, 2.0], 0.9)
        assert np.array_equal(lam, [0.0, 0.9, 0.0])

    def test_mu_zero_gives_all_zeros(self):
        assert np.array_equal(dual_multipliers([3.0, 1.0], 0.0), [0.0, 0.0])

    def test_first_minimum_wins_ties(self):
        lam = dual_multipliers([2.0, 1.0, 1.0], 0.5)
        assert np.array_equal(lam, [0.0, 0.5, 0.0])

    def test_achieves_lp_optimum_against_random_feasible_points(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            c = rng.uniform(0.0, 20.0, size=n)
            mu = float(rng.random())
            lam = dual_multipliers(c, mu)
            assert lam.sum() == pytest.approx(mu, abs=1e-15)
            assert np.all(lam >= 0)
            value = float(c @ lam)
            assert value == pytest.approx(mu * c.min(), rel=1e-12)
            feasible = mu * rng.dirichlet(np.ones(n), size=200)
            assert np.all(feasible @ c >= value - 1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            dual_multipliers([], 0.5)
        with pytest.raises(ValueError):
            dual_multipliers([1.0, -0.5], 0.5)
        with pytest.raises(ValueError, match=r"mu must lie in \[0, 1\], got 1.5"):
            dual_multipliers([1.0], 1.5)


class TestRegistry:
    def test_builtin_names(self):
        assert set(STRATEGIES) >= {"P-OPT", "C-HUN", "C-NINT", "R-EPA"}

    def test_names_map_to_the_strategy_functions(self):
        assert STRATEGIES == {"P-OPT": solve_p_opt, "C-HUN": solve_c_hun,
                              "C-NINT": solve_c_nint, "R-EPA": solve_r_epa}

    def test_solve_dispatches(self):
        params = params_with()
        gains = build_gain_table(params, [np.random.default_rng(k) for k in range(8)])
        w = sr(gains)
        direct = solve_c_hun(gains, None, params, [(w, 0.5), (w, 0.1), (w, 0.9)])
        via_registry = solvers.solve("C-HUN", gains, None, params,
                                     [(WeightMode.SUM_RATE, mu) for mu in (0.5, 0.1, 0.9)])
        for field, a in vars(direct).items():
            assert getattr(via_registry, field).tobytes() == a.tobytes(), field
        assert shared_exactly_when_equal(via_registry) > 0

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
        exec(block.split("```", 1)[0], {})
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("[")

    def test_unknown_strategy(self):
        params = params_with()
        g = random_drop(np.random.default_rng(15), params)
        with pytest.raises(KeyError):
            solve_drop("NOPE", g, params, [(WeightMode.SUM_RATE, 0.5)])
