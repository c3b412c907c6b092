import contextlib
import copy
import math

import numpy as np
import pytest

from fdsched.model import (
    GainTable,
    ScenarioParams,
    WeightMode,
    WeightVector,
    db_to_linear,
)
from fdsched.radio import (
    corner_benefit,
    corner_points,
    corner_tables,
    make_weights,
    objective_value,
    outcome_metrics,
    sinr,
)
from fdsched.scenario import build_gain_table
from oracles import (
    all_se,
    benefit_value,
    corner_se,
    drop_gain_table,
    evaluate_pair,
    evaluate_solo_dl,
    evaluate_schedule,
    evaluate_solo_ul,
    pair_edge_powers,
    pair_max_min_powers,
    power_candidates,
    reference_outcome_metrics,
    sinr_dl,
    sinr_ul,
    tie_heavy_drop,
)

P24 = 10 ** (-0.6)           # 24 dBm in watts
NOISE = 2.291e-15            # -116.4 dBm per channel (rounded)
BETA = 1e-10                 # -100 dB residual self-interference


def params_with(**kw):
    defaults = dict(num_ul=4, num_dl=4, num_channels=4,
                    noise_power_w=NOISE, si_cancellation=BETA)
    defaults.update(kw)
    return ScenarioParams(**defaults)


def table(g_ul, g_dl, g_cross):
    return GainTable(g_ul=np.asarray(g_ul, float), g_dl=np.asarray(g_dl, float),
                     g_cross=np.asarray(g_cross, float))


def successive_drops(params, rng, count):
    """The chunk (build_gain_table) of the count drops that drop_gain_table
    makes from rng one after another."""
    starts = []
    for _ in range(count):
        starts.append(copy.deepcopy(rng))
        drop_gain_table(params, rng)
    return build_gain_table(params, starts)


def random_table(rng, num_ul=4, num_dl=4):
    params = ScenarioParams(num_ul=num_ul, num_dl=num_dl,
                            num_channels=num_ul + num_dl)
    return drop_gain_table(params, rng)


class TestSinr:
    def test_unpaired_ul_sees_noise_only(self):
        assert sinr(P24, 1e-8, 0.0, BETA, NOISE) == pytest.approx(P24 * 1e-8 / NOISE)

    def test_reference_value(self):
        # p=0.2512 W, g=-80 dB, both powers equal, beta=-100 dB: the SI term
        # dominates the noise and the SINR sits just below g/beta = 100.
        got = sinr(P24, 1e-8, P24, BETA, NOISE)
        assert got == pytest.approx(99.9909, abs=5e-3)
        assert 10 * math.log10(got) == pytest.approx(20.0, abs=1e-3)

    def test_monotone_in_interference(self):
        base = sinr(P24, 1e-8, P24, BETA, NOISE)
        assert sinr(P24, 1e-8, P24, 2 * BETA, NOISE) < base
        assert sinr(P24, 1e-8, P24, 2e-9, NOISE) < sinr(P24, 1e-8, P24, 1e-9, NOISE)

    def test_monotone_in_own_power(self):
        assert sinr(2 * P24, 1e-8, P24, BETA, NOISE) > sinr(P24, 1e-8, P24, BETA, NOISE)

    def test_dl_mirrors_ul(self):
        assert sinr(P24, 1e-8, 0.0, 1e-9, NOISE) == pytest.approx(P24 * 1e-8 / NOISE)
        assert sinr(P24, 1e-8, P24, 0.0, NOISE) == pytest.approx(P24 * 1e-8 / NOISE)
        assert sinr(0.0, 1e-8, P24, 1e-9, NOISE) == 0.0


class TestSpectralEfficiency:
    def test_reference_points(self):
        # received power 0, 1 and 99.1 times the noise, alone on a channel
        assert math.log2(1.0 + sinr(0.0, 1e-8, 0.0, BETA, NOISE)) == 0.0
        assert math.log2(1.0 + sinr(NOISE, 1.0, 0.0, BETA, NOISE)) == pytest.approx(1.0)
        assert math.log2(1.0 + sinr(99.1 * NOISE, 1.0, 0.0, BETA, NOISE)) == \
            pytest.approx(6.6453, abs=1e-3)


class TestWeights:
    def test_sum_rate_is_all_ones(self):
        g = table([1e-8, 1e-9], [1e-7], [[1e-9], [1e-10]])
        w = make_weights(WeightMode.SUM_RATE, g)
        assert np.all(w.alpha_ul == 1.0) and np.all(w.alpha_dl == 1.0)

    def test_path_loss_compensation_is_reciprocal(self):
        g = table([1e-8], [1e-7], [[1e-9]])
        w = make_weights(WeightMode.PATH_LOSS_COMPENSATION, g)
        assert w.alpha_ul[0] == pytest.approx(1e8)
        assert w.alpha_dl[0] == pytest.approx(1e7)

    def test_zero_gain_rejected_for_pl(self):
        g = table([0.0], [1e-7], [[1e-9]])
        with pytest.raises(ValueError):
            make_weights(WeightMode.PATH_LOSS_COMPENSATION, g)


class TestEvaluatePair:
    def test_interference_free_prefers_both_on(self):
        g = table([1e-8], [1e-8], [[1e-30]])
        for mu in (0.0, 1.0):
            params = params_with(num_ul=1, num_dl=1, num_channels=1, si_cancellation=1e-30)
            w = make_weights(WeightMode.SUM_RATE, g)
            ev = evaluate_pair(0, 0, g, params, w, mu)
            assert ev.best_powers == (params.p_max_ul_w, params.p_max_dl_w)
            assert ev.benefit > 0

    def test_huge_cross_gain_with_max_min_objective(self):
        # both-on keeps a sliver of min SE; one-off corners zero it out, so
        # ties at ~0 benefit resolve to both-on
        g = table([1e-8], [1e-8], [[1.0]])
        params = params_with(num_ul=1, num_dl=1, num_channels=1)
        w = make_weights(WeightMode.SUM_RATE, g)
        ev = evaluate_pair(0, 0, g, params, w, 1.0)
        assert ev.best_powers == (params.p_max_ul_w, params.p_max_dl_w)
        assert ev.benefit == pytest.approx(0.0, abs=1e-6)

    def test_benefit_matches_independent_corner_recomputation(self):
        rng = np.random.default_rng(12)
        params = params_with()
        for _ in range(50):
            g = random_table(rng)
            w = make_weights(WeightMode.SUM_RATE, g)
            i, j = rng.integers(0, 4, size=2)
            ev = evaluate_pair(int(i), int(j), g, params, w, 0.4)
            best = -np.inf
            for p_u, p_d in corner_points(params):
                c_u = math.log2(1 + p_u * g.g_ul[i] / (NOISE + p_d * BETA))
                c_d = math.log2(1 + p_d * g.g_dl[j] / (NOISE + p_u * g.g_cross[i, j]))
                best = max(best, benefit_value(c_u, c_d, 1.0, 1.0, 0.4))
            assert ev.benefit == pytest.approx(best, rel=1e-12)

    def test_vectorized_tables_match_scalar_evaluation(self):
        rng = np.random.default_rng(21)
        params = params_with()
        for mu in (0.0, 0.3, 1.0):
            g = random_table(rng)
            w = make_weights(WeightMode.SUM_RATE, g)
            tables = corner_tables(g, params)
            best, best_corner, _, _ = corner_benefit(tables, w, mu)
            se_ul, se_dl = corner_se(tables)
            corners = corner_points(params)
            for i in range(4):
                for j in range(4):
                    ev = evaluate_pair(i, j, g, params, w, mu)
                    k = best_corner[i, j]
                    assert corners[k] == ev.best_powers
                    assert best[i, j] == pytest.approx(ev.benefit, rel=1e-12)
                    assert se_ul[i, j, k] == pytest.approx(ev.se_ul, rel=1e-12)
                    assert se_dl[i, j, k] == pytest.approx(ev.se_dl, rel=1e-12)


class TestCornerTables:
    """corner_tables builds its weight-free SEs from per-direction vectors;
    each of its four arrays must equal the SINR formula at its corner bit
    for bit, and so must the (I, J, 3) SEs they stand for (corner_se).  One
    pass over a chunk must give each drop's four arrays bit for bit."""

    @pytest.mark.parametrize("num_ul, num_dl",
                             [(4, 4), (25, 25), (40, 80), (3, 7), (0, 5), (5, 0)])
    def test_equals_the_formula_at_the_corners(self, num_ul, num_dl):
        params = ScenarioParams(num_ul=num_ul, num_dl=num_dl,
                                num_channels=num_ul + num_dl)
        points = corner_points(params)
        chunk = successive_drops(params, np.random.default_rng(num_ul + num_dl), 5)
        chunk_tables = corner_tables(chunk, params)
        for d in range(5):
            g = chunk.drop(d)
            tables = corner_tables(g, params)
            for name, arr in vars(tables).items():
                assert getattr(chunk_tables, name)[d].tobytes() == arr.tobytes(), name
            want_ul, want_dl = power_candidates(g, params, points)
            assert tables.paired_se_ul.tobytes() == want_ul[:, 0, 0].tobytes()
            assert tables.paired_se_dl.tobytes() == want_dl[:, :, 0].tobytes()
            # the solo SEs are the corners where the partner is silent, for
            # every partner, and for a stand-in one where the other side is empty
            assert tables.solo_se_ul.tobytes() == want_ul[:, 0, 1].tobytes()
            assert want_dl[:, :, 2].tobytes() == np.broadcast_to(
                tables.solo_se_dl, (num_ul, num_dl)).tobytes()
            _, lone_dl = power_candidates(table([1.0], g.g_dl, np.ones((1, num_dl))),
                                          params, points)
            assert tables.solo_se_dl.tobytes() == lone_dl[0, :, 2].tobytes()
            se_ul, se_dl = corner_se(tables)
            assert se_ul.tobytes() == np.broadcast_to(want_ul, se_ul.shape).tobytes()
            assert se_dl.tobytes() == want_dl.tobytes()


STACKED_OBJECTIVES = [(WeightMode.SUM_RATE, 0.0), (WeightMode.SUM_RATE, 0.1),
                      (WeightMode.PATH_LOSS_COMPENSATION, 0.5), (WeightMode.SUM_RATE, 0.9),
                      (WeightMode.PATH_LOSS_COMPENSATION, 1.0)]


class TestStackedBenefit:
    """corner_benefit scores K objectives as one leading axis; each slice's
    best benefit and corner must equal the max and argmax of benefit_value
    over the three corners of its own objective bit for bit, and its solo
    parts the per-user solo formula.  Scored with a leading drop axis, a
    chunk's outputs must equal each drop's bit for bit."""

    def assert_each_slice_equals_its_own_objective(self, tables, objectives):
        best, corner, solo_ul, solo_dl = corner_benefit(
            tables, WeightVector(np.array([w.alpha_ul for w, _ in objectives]),
                                 np.array([w.alpha_dl for w, _ in objectives])),
            np.array([mu for _, mu in objectives]))
        scores = best, corner, solo_ul, solo_dl
        se_ul, se_dl = corner_se(tables)
        assert best.shape == corner.shape == (len(objectives), *se_ul.shape[:2])
        for k, (w, mu) in enumerate(objectives):
            want = benefit_value(se_ul, se_dl, w.alpha_ul[:, None, None],
                                 w.alpha_dl[None, :, None], mu)
            assert best[k].tobytes() == want.max(axis=2).tobytes()
            assert np.array_equal(corner[k], want.argmax(axis=2))
            assert solo_ul[k].tobytes() == ((1.0 - mu) * w.alpha_ul * tables.solo_se_ul).tobytes()
            assert solo_dl[k].tobytes() == ((1.0 - mu) * w.alpha_dl * tables.solo_se_dl).tobytes()
        return scores

    @pytest.mark.parametrize("num_ul, num_dl, num_channels",
                             [(4, 4, 4), (3, 7, 8), (25, 25, 25), (40, 80, 96)])
    def test_each_slice_equals_its_own_objective(self, num_ul, num_dl, num_channels):
        params = ScenarioParams(num_ul=num_ul, num_dl=num_dl, num_channels=num_channels)
        chunk = successive_drops(params, np.random.default_rng(7 + num_ul + num_dl), 3)
        weights = {mode: make_weights(mode, chunk) for mode, _ in STACKED_OBJECTIVES}
        chunk_scores = corner_benefit(
            corner_tables(chunk, params),
            WeightVector(np.array([weights[mode].alpha_ul for mode, _ in STACKED_OBJECTIVES]),
                         np.array([weights[mode].alpha_dl for mode, _ in STACKED_OBJECTIVES])),
            np.array([[mu] for _, mu in STACKED_OBJECTIVES]))
        for d in range(3):
            g = chunk.drop(d)
            scores = self.assert_each_slice_equals_its_own_objective(
                corner_tables(g, params),
                [(make_weights(mode, g), mu) for mode, mu in STACKED_OBJECTIVES])
            for chunked, alone in zip(chunk_scores, scores):
                assert chunked[:, d].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("block", [1, 700, 1300, 1 << 20],
                             ids=["one-drop", "one-drop-above", "two-drops", "whole-chunk"])
    def test_drop_blocks_keep_each_drops_bits(self, monkeypatch, block):
        # the mu * min term goes through a buffer of _BLOCK_ENTRIES floats, a
        # block of drops at a time (a 25 x 25 drop has 625 pairs; 5 drops in
        # blocks of 2 end in a block of 1)
        from fdsched import radio

        monkeypatch.setattr(radio, "_BLOCK_ENTRIES", block)
        params = ScenarioParams(num_ul=25, num_dl=25, num_channels=25)
        chunk = successive_drops(params, np.random.default_rng(3), 5)
        objectives = [(make_weights(mode, chunk), mu) for mode, mu in STACKED_OBJECTIVES]
        chunk_scores = corner_benefit(
            corner_tables(chunk, params),
            WeightVector(np.array([w.alpha_ul for w, _ in objectives]),
                         np.array([w.alpha_dl for w, _ in objectives])),
            np.array([[mu] for _, mu in objectives]))
        for d in range(5):
            g = chunk.drop(d)
            alone = self.assert_each_slice_equals_its_own_objective(
                corner_tables(g, params),
                [(make_weights(mode, g), mu) for mode, mu in STACKED_OBJECTIVES])
            for chunked, scores in zip(chunk_scores, alone):
                assert chunked[:, d].tobytes() == scores.tobytes()

    def test_a_chunk_is_scored_without_a_chunk_sized_buffer(self, monkeypatch):
        # a 40-drop 25 + 25 chunk under one objective: a chunk-sized mu * min
        # buffer (one block) adds a benefit's bytes to the peak that blocks of
        # 13 drops (_BLOCK_ENTRIES) keep to a third of them
        import tracemalloc

        from fdsched import radio

        params = ScenarioParams(num_ul=25, num_dl=25, num_channels=25)
        chunk = successive_drops(params, np.random.default_rng(5), 40)
        tables = corner_tables(chunk, params)
        weights = make_weights(WeightMode.SUM_RATE, chunk)
        peaks = []
        for block in (radio._BLOCK_ENTRIES, 1 << 30):
            monkeypatch.setattr(radio, "_BLOCK_ENTRIES", block)
            tracemalloc.start()
            try:
                best = corner_benefit(tables, weights, 0.5)[0]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert best.shape == (40, 25, 25)
        assert peaks[0] < peaks[1] - best.nbytes / 2

    @pytest.mark.parametrize("direct, cross, modes", [
        ((1e-9, 1e-7), (1e-12, 1e-6), (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION)),
        # a zero direct gain gives a zero SE, which ties (Pmax, Pmax) at mu = 1
        ((0.0, 1e-9), (0.0, 1e-9), (WeightMode.SUM_RATE,)),
        ((0.0, 1e-7), (1e-12, 1e-6), (WeightMode.SUM_RATE,)),
    ], ids=["positive", "zero-or-one-level", "zero-or-far"])
    def test_tied_corners_resolve_to_the_first(self, direct, cross, modes):
        # equal UL and DL powers and a shared direct gain level tie the two
        # one-user corners above (Pmax, Pmax), at mu = 1 both score 0
        params = ScenarioParams(num_ul=6, num_dl=6, num_channels=6)
        rng = np.random.default_rng(31)
        ties = {"one-user corners above the paired one": 0, "paired corner among ties": 0}
        for _ in range(20):
            g = tie_heavy_drop(rng, 6, 6, direct, cross)
            tables = corner_tables(g, params)
            objectives = [(make_weights(mode, g), mu) for mode in modes for mu in (0.0, 0.5, 1.0)]
            self.assert_each_slice_equals_its_own_objective(tables, objectives)
            se_ul, se_dl = corner_se(tables)
            for w, mu in objectives:
                b = benefit_value(se_ul, se_dl, w.alpha_ul[:, None, None],
                                  w.alpha_dl[None, :, None], mu)
                top = b == b.max(axis=2)[..., None]
                ties["one-user corners above the paired one"] += int(
                    (~top[..., 0] & top[..., 1] & top[..., 2]).sum())
                ties["paired corner among ties"] += int(
                    (top[..., 0] & (top[..., 1] | top[..., 2])).sum())
        assert ties["one-user corners above the paired one"] > 0
        assert (ties["paired corner among ties"] > 0) == (0.0 in direct)


class TestSolo:
    def test_solo_ul_is_interference_free(self):
        g = table([1e-8], [1e-8], [[1e-9]])
        params = params_with(num_ul=1, num_dl=1, num_channels=2)
        w = make_weights(WeightMode.SUM_RATE, g)
        se, contrib = evaluate_solo_ul(0, g, params, w, 0.0)
        assert se == pytest.approx(math.log2(1 + params.p_max_ul_w * 1e-8 / NOISE))
        assert contrib == pytest.approx(se)

    def test_contribution_vanishes_at_mu_one(self):
        g = table([1e-8], [1e-8], [[1e-9]])
        params = params_with(num_ul=1, num_dl=1, num_channels=2)
        w = make_weights(WeightMode.SUM_RATE, g)
        _, contrib_u = evaluate_solo_ul(0, g, params, w, 1.0)
        _, contrib_d = evaluate_solo_dl(0, g, params, w, 1.0)
        assert contrib_u == 0.0 and contrib_d == 0.0


class TestOutcomeMetrics:
    def test_all_solo_at_max_power(self):
        rng = np.random.default_rng(5)
        g = random_table(rng, 2, 2)
        params = params_with(num_ul=2, num_dl=2, num_channels=4)
        w = make_weights(WeightMode.SUM_RATE, g)
        out = evaluate_schedule([-1, -1], np.full(2, params.p_max_ul_w),
                                np.full(2, params.p_max_dl_w), g, params, w, 0.3)
        se = np.log2(1 + params.p_max_ul_w * np.concatenate([g.g_ul, g.g_dl]) / NOISE)
        assert all_se(out) == pytest.approx(se)
        assert out.objective == pytest.approx(0.7 * se.sum() + 0.3 * se.min())

    def test_mu_one_objective_is_min(self):
        rng = np.random.default_rng(6)
        g = random_table(rng)
        params = params_with()
        w = make_weights(WeightMode.SUM_RATE, g)
        out = evaluate_schedule([0, 1, 2, 3], np.full(4, params.p_max_ul_w),
                                np.full(4, params.p_max_dl_w), g, params, w, 1.0)
        assert out.objective == pytest.approx(out.min_se, rel=1e-12)

    def test_single_pair_matches_evaluate_pair(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_table(rng, 1, 1)
            params = params_with(num_ul=1, num_dl=1, num_channels=1)
            mu = float(rng.random())
            w = make_weights(WeightMode.SUM_RATE, g)
            ev = evaluate_pair(0, 0, g, params, w, mu)
            out = evaluate_schedule([0], np.array([ev.best_powers[0]]),
                                    np.array([ev.best_powers[1]]), g, params, w, mu)
            assert out.objective == pytest.approx(ev.benefit, rel=1e-12)

    def test_weighted_sum_additivity_at_mu_zero(self):
        # outcome of an assembled schedule = sum of pair benefits + solo parts
        rng = np.random.default_rng(8)
        params = params_with(num_ul=3, num_dl=3, num_channels=6)
        for _ in range(20):
            g = random_table(rng, 3, 3)
            w = make_weights(WeightMode.SUM_RATE, g)
            ev01 = evaluate_pair(0, 1, g, params, w, 0.0)
            ev12 = evaluate_pair(1, 2, g, params, w, 0.0)
            se_solo_u, contrib_u = evaluate_solo_ul(2, g, params, w, 0.0)
            _, contrib_d = evaluate_solo_dl(0, g, params, w, 0.0)
            p_ul = np.array([ev01.best_powers[0], ev12.best_powers[0], params.p_max_ul_w])
            p_dl = np.array([params.p_max_dl_w, ev01.best_powers[1], ev12.best_powers[1]])
            out = evaluate_schedule([1, 2, -1], p_ul, p_dl, g, params, w, 0.0)
            expected = ev01.benefit + ev12.benefit + contrib_u + contrib_d
            assert out.objective == pytest.approx(expected, rel=1e-9)

    def test_objective_recomputable_from_stored_fields(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_table(rng)
            params = params_with()
            mu = float(rng.random())
            w = make_weights(WeightMode.SUM_RATE, g)
            out = evaluate_schedule(rng.permutation(4), np.full(4, params.p_max_ul_w),
                                    np.full(4, params.p_max_dl_w), g, params, w, mu)
            recomputed = ((1 - mu) * (w.alpha_ul @ out.se_ul + w.alpha_dl @ out.se_dl)
                          + mu * all_se(out).min())
            assert out.objective == pytest.approx(recomputed, rel=1e-9)
            assert out.min_se == all_se(out).min()
            assert out.sum_se == pytest.approx(all_se(out).sum(), rel=1e-12)

    @pytest.mark.parametrize("num_ul, num_dl, num_channels",
                             [(4, 4, 4), (3, 5, 8), (5, 2, 6), (6, 6, 9), (0, 3, 3),
                              (3, 0, 4), (1, 1, 2), (25, 25, 25)])
    def test_matches_per_user_reference(self, num_ul, num_dl, num_channels):
        # random partial matchings (solo users wherever the budget allows)
        # with powers at the corners and in between, on a chunk of drops,
        # all evaluated in one call and scored on every objective in one
        # call each; enough SEs that a log2 off in the last bit on ~0.1% of
        # inputs shows
        rng = np.random.default_rng(100 * num_ul + num_dl)
        base = params_with(num_ul=num_ul, num_dl=num_dl, num_channels=num_channels)
        chunk = build_gain_table(base, [np.random.default_rng([num_ul, num_dl, d])
                                        for d in range(5)])
        count = 100
        drops = rng.integers(0, 5, count)
        partners = np.full((count, num_ul), -1)
        levels = np.array([0.0, 0.5, 1.0])
        p_ul, p_dl = np.empty((count, num_ul)), np.empty((count, num_dl))
        for s in range(count):
            min_pairs = max(0, num_ul + num_dl - num_channels)
            n_pairs = int(rng.integers(min_pairs, min(num_ul, num_dl) + 1))
            partners[s, rng.permutation(num_ul)[:n_pairs]] = rng.permutation(num_dl)[:n_pairs]
            p_ul[s] = base.p_max_ul_w * np.where(rng.random(num_ul) < 0.3, rng.random(num_ul),
                                                 rng.choice(levels, num_ul))
            p_dl[s] = base.p_max_dl_w * np.where(rng.random(num_dl) < 0.3, rng.random(num_dl),
                                                 rng.choice(levels, num_dl))
        # every user silent: every SE is zero, and jain_index warns
        silent = [not (u.any() or d.any()) for u, d in zip(p_ul, p_dl)]

        def warns(quiet):
            return pytest.warns(UserWarning, match="all-zero") if quiet else contextlib.nullcontext()

        with warns(any(silent)):
            se_ul, se_dl, sums, minima, jain = outcome_metrics(chunk, base, drops, partners,
                                                               p_ul, p_dl)
        for mode in WeightMode:
            w = make_weights(mode, chunk)
            rows = WeightVector(w.alpha_ul[drops], w.alpha_dl[drops])
            for mu in (0.0, 0.5, 1.0):
                objectives = objective_value(se_ul, se_dl, minima, rows, np.full(count, mu))
                for s, d in enumerate(drops.tolist()):
                    g = chunk.drop(d)
                    with warns(silent[s]):
                        want = reference_outcome_metrics(partners[s], p_ul[s], p_dl[s], g,
                                                         base, make_weights(mode, g), mu)
                    assert np.array_equal(se_ul[s], want.se_ul)
                    assert np.array_equal(se_dl[s], want.se_dl)
                    assert objectives[s] == want.objective
                    assert sums[s] == want.sum_se
                    assert minima[s] == want.min_se
                    assert jain[s] == want.jain


class TestOutcomeMetricsRejects:
    """outcome_metrics checks the schedules it is given, one row each:
    shapes that match the chunk's gains, partners in [-1, J) and no DL
    user in two pairs, in any row of the stack."""

    PARAMS = params_with(num_ul=2, num_dl=2, num_channels=4)
    CHUNK = GainTable(np.full((2, 2), 1e-8), np.full((2, 2), 1e-8), np.full((2, 2, 2), 1e-9))

    def evaluate(self, partners, drops=None, p_ul=None, p_dl=None):
        partners = np.asarray(partners)
        count = len(partners)
        return outcome_metrics(
            self.CHUNK, self.PARAMS, np.zeros(count, int) if drops is None else drops, partners,
            np.ones((count, 2)) if p_ul is None else p_ul,
            np.ones((count, 2)) if p_dl is None else p_dl)

    def test_valid_rows_pass(self):
        # several users alone share the partner -1, which is no reuse
        se_ul, se_dl, *_ = self.evaluate([[-1, -1], [0, 1], [1, 0], [-1, 1], [0, -1]],
                                         drops=[0, 1, 0, 1, 1])
        assert se_ul.shape == se_dl.shape == (5, 2)

    @pytest.mark.parametrize("partners, drops, p_ul, p_dl", [
        ([[-1, -1, 0]], None, None, None),              # a third UL user
        ([[0]], None, None, None),                      # a missing UL user
        ([[0, 1]], None, np.ones((1, 3)), None),        # a UL power too many
        ([[0, 1]], None, None, np.ones((1, 1))),        # a DL power missing
        ([[0, 1]], None, np.ones((2, 2)), None),        # powers of another schedule
        ([[0, 1]], [0, 1], None, None),                 # two drops for one schedule
    ])
    def test_shape_mismatch_rejected(self, partners, drops, p_ul, p_dl):
        with pytest.raises(ValueError, match="do not match"):
            self.evaluate(partners, drops, p_ul, p_dl)

    @pytest.mark.parametrize("partners", [[[-2, -1]], [[2, -1]], [[-1, 5]],
                                          [[0, 1], [1, 0], [0, 2]]])
    def test_partner_out_of_range_rejected(self, partners):
        # unchecked, -2 would read DL user J - 2's power and 2 would raise IndexError
        with pytest.raises(ValueError, match="out of range"):
            self.evaluate(partners)

    @pytest.mark.parametrize("partners", [[[1, 1]], [[0, 0]],
                                          [[0, 1], [-1, -1], [1, 1], [1, 0]]])
    def test_dl_user_in_two_pairs_rejected(self, partners):
        with pytest.raises(ValueError, match="another pair"):
            self.evaluate(partners)


class TestPowerBeyondCorners:
    """One pair's power square searched along its two edges (one power at
    its cap, the other log-spaced down to 1e-14 of its cap), against the
    closed-form max-min powers and against the three corners."""

    DROPS = 500

    @staticmethod
    def single_pair_drops(si_db, drops):
        params = ScenarioParams(num_ul=1, num_dl=1, num_channels=1,
                                si_cancellation=db_to_linear(si_db))
        rng = np.random.default_rng(int(-si_db))
        tables = [drop_gain_table(params, rng) for _ in range(drops)]
        return params, [(g.g_ul[0], g.g_dl[0], g.g_cross[0, 0]) for g in tables]

    @staticmethod
    def pair_ses(params, g_u, g_d, g_c, p_u, p_d):
        """The pair's UL and DL SEs at powers (p_u, p_d), broadcast."""
        noise = params.noise_power_w
        return (np.log2(1.0 + sinr_ul(p_u, g_u, p_d, params.si_cancellation, noise)),
                np.log2(1.0 + sinr_dl(p_d, g_d, p_u, g_c, noise)))

    @pytest.mark.parametrize("si_db", [-100.0, -120.0, -130.0])
    def test_closed_form_max_min_is_never_beaten(self, si_db):
        params, drops = self.single_pair_drops(si_db, self.DROPS)
        g_u, g_d, g_c = (np.array(g)[:, None] for g in zip(*drops))
        edge_u, edge_d = pair_edge_powers(params)
        edge_best = np.minimum(*self.pair_ses(params, g_u, g_d, g_c, edge_u, edge_d)).max(axis=1)
        for (gu, gd, gc), best in zip(drops, edge_best):
            p_u, p_d = pair_max_min_powers(gu, gd, gc, params)
            assert 0.0 < p_u <= params.p_max_ul_w and 0.0 < p_d <= params.p_max_dl_w
            assert p_u == params.p_max_ul_w or p_d == params.p_max_dl_w
            se_u, se_d = self.pair_ses(params, gu, gd, gc, p_u, p_d)
            assert se_u == pytest.approx(se_d, rel=1e-9)
            assert best <= min(se_u, se_d) * (1.0 + 1e-9)

    @pytest.mark.parametrize("si_db", [-100.0, -120.0, -130.0])
    def test_corners_are_optimal_for_equal_weights(self, si_db):
        # binary power control under SR weights at mu = 0: no edge point
        # beats the best of the three corners
        params, drops = self.single_pair_drops(si_db, self.DROPS)
        g_u, g_d, g_c = (np.array(g)[:, None] for g in zip(*drops))
        edge_best = np.add(*self.pair_ses(params, g_u, g_d, g_c,
                                          *pair_edge_powers(params))).max(axis=1)
        corner_u, corner_d = (np.array(p) for p in zip(*corner_points(params)))
        corner_best = np.add(*self.pair_ses(params, g_u, g_d, g_c,
                                            corner_u, corner_d)).max(axis=1)
        assert np.all(edge_best <= corner_best * (1.0 + 1e-12))
