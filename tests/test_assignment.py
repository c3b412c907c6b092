import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from fdsched import assignment
from fdsched.assignment import (_min_cost_assignment, _min_cost_assignments, assign_with_solo,
                                hungarian_max)
from fdsched.harness import canned_experiments, config_from_dict, run_experiment
from fdsched.model import GainTable, ScenarioParams, WeightMode
from fdsched.radio import corner_benefit, corner_tables, make_weights
from oracles import (brute_force_assignment, drop_gain_table, pairing_matrix, pairs_of,
                     reference_assign_with_solo, solo_total)


def reference_min_cost_assignment(cost: np.ndarray, ends: list | None = None) -> list[int]:
    """The vectorized form of the package's Hungarian solver on an n x m
    cost matrix, n <= m: the same potentials, the same minv/way tree and
    the same floating-point operations, written as a few numpy calls per
    tree step.  Kept as an oracle for the decisions of the scalar solver,
    ties included.  With ends, each insertion appends (tree steps so far,
    its path's length): a lockstep solve ends it in that round."""
    n, m = cost.shape
    u = np.zeros(n)                              # row potentials
    v = np.zeros(m + 1)                          # column potentials
    row_of_col = np.full(m + 1, -1, dtype=int)
    steps = 0
    for i in range(n):
        row_of_col[m] = i
        j0 = m
        minv = np.full(m, np.inf)
        way = np.full(m, m, dtype=int)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            steps += 1
            used[j0] = True
            i0 = row_of_col[j0]
            reduced = cost[i0, :] - u[i0] - v[:m]
            improve = ~used[:m] & (reduced < minv)
            minv[improve] = reduced[improve]
            way[improve] = j0
            slack = np.where(used[:m], np.inf, minv)
            j1 = int(np.argmin(slack))
            delta = float(slack[j1])
            used_cols = np.flatnonzero(used)
            u[row_of_col[used_cols]] += delta
            v[used_cols] -= delta
            minv[~used[:m]] -= delta
            j0 = j1
            if row_of_col[j0] < 0:
                break
        length = 0
        while j0 != m:                           # augment along the tree path
            j_prev = way[j0]
            row_of_col[j0] = row_of_col[j_prev]
            j0 = j_prev
            length += 1
        if ends is not None:
            ends.append((steps, length))
    matched = np.flatnonzero(row_of_col[:m] >= 0)
    col_of_row = np.empty(n, dtype=int)
    col_of_row[row_of_col[matched]] = matched
    return col_of_row.tolist()


def solo_square(rng, num_ul, num_dl, num_channels):
    """The square assign_with_solo hands to the solver: pair benefits,
    each UL user's solo score repeated across the dummy columns, each DL
    user's across the dummy rows, zeros where dummies meet."""
    size = num_ul + num_dl - max(0, num_ul + num_dl - num_channels)
    square = np.zeros((size, size))
    square[:num_ul, :num_dl] = rng.normal(size=(num_ul, num_dl))
    square[:num_ul, num_dl:] = rng.normal(size=num_ul)[:, None]
    square[num_ul:, :num_dl] = rng.normal(size=num_dl)[None, :]
    return square


def random_matrix(rng, max_side=7):
    rows = int(rng.integers(1, max_side + 1))
    cols = int(rng.integers(1, max_side + 1))
    return rng.normal(0.0, 10.0, size=(rows, cols))


class TestHungarianMax:
    def test_two_by_two(self):
        assignment, total = hungarian_max([[1.0, 2.0], [3.0, 5.0]])
        assert assignment == {0: 0, 1: 1}
        assert total == 6.0

    def test_identity_like(self):
        assignment, total = hungarian_max([[1.0, 0.0], [0.0, 1.0]])
        assert assignment == {0: 0, 1: 1}
        assert total == 2.0

    def test_three_by_three_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.integers(-9, 10, size=(3, 3)).astype(float)
            _, total = hungarian_max(m)
            _, expected = brute_force_assignment(m)
            assert total == expected

    def test_rectangular_padding_semantics(self):
        # a padded dummy absorbs the weakest side when entries are negative
        assignment, total = hungarian_max([[-5.0], [-6.0]])
        assert assignment == {0: 0}
        assert total == -5.0
        assignment, total = hungarian_max([[-5.0, -6.0]])
        assert assignment == {0: 0}
        assert total == -5.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hungarian_max(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            hungarian_max([[np.inf, 1.0]])

    def test_oracle_equivalence_random_floats(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m = random_matrix(rng)
            _, total = hungarian_max(m)
            _, expected = brute_force_assignment(m)
            assert total == pytest.approx(expected, abs=1e-9)

    def test_matches_scipy_at_scale(self):
        # the canned large experiment solves 25x25 and padded 50x50 problems
        rng = np.random.default_rng(2)
        for size in (25, 50, 60):
            m = rng.normal(0.0, 5.0, size=(size, size))
            _, total = hungarian_max(m)
            r, c = linear_sum_assignment(m, maximize=True)
            assert total == pytest.approx(float(m[r, c].sum()), abs=1e-9)

    def test_shift_invariance_on_square_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = rng.normal(size=(n, n))
            base_assignment, base_total = hungarian_max(m)
            shifted_assignment, shifted_total = hungarian_max(m + 3.5)
            assert shifted_assignment == base_assignment
            assert shifted_total == pytest.approx(base_total + 3.5 * n, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = rng.normal(size=(n, n)) + np.arange(n)[:, None]  # break ties
            perm = rng.permutation(n)
            base, base_total = hungarian_max(m)
            permuted, permuted_total = hungarian_max(m[perm])
            assert permuted_total == pytest.approx(base_total, rel=1e-12)
            assert {int(perm[r]): c for r, c in permuted.items()} == base


class TestMatchesVectorizedReference:
    """The solvers must pick the same matching as the vectorized reference,
    not just one of equal total: C-NINT realizes the planned matching on
    different gains, so a different tie choice changes its results.  Every
    cost a test checks is also solved in lockstep, as one stack with the
    test's other costs of its shape."""

    @pytest.fixture(autouse=True)
    def also_as_one_stack(self):
        self.stacks = {}   # shape -> [(cost, its reference matching)]
        yield
        for shape, solved in self.stacks.items():
            costs = np.stack([cost for cost, _ in solved])
            got = _min_cost_assignments(-costs, np.zeros(len(costs)))
            assert got.tolist() == [want for _, want in solved], f"stack of {shape} costs"

    def assert_same_decisions(self, cost):
        # with the pruning gate as shipped, and with every wide cost pruned
        want = reference_min_cost_assignment(cost)
        assert _min_cost_assignment(cost) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assignment, "_PRUNE_MIN_SPARE_ENTRIES", 1)
            assert _min_cost_assignment(cost) == want
        self.stacks.setdefault(cost.shape, []).append((cost.copy(), want))

    def test_random_floats_sizes_1_to_96(self):
        rng = np.random.default_rng(10)
        for n in range(1, 97):
            for _ in range(3 if n <= 12 else 1):
                self.assert_same_decisions(rng.normal(0.0, 5.0, size=(n, n)))

    def test_integer_matrices_full_of_ties(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8, 13, 25, 40):
            for high in (1, 2, 4):
                self.assert_same_decisions(
                    rng.integers(0, high + 1, size=(n, n)).astype(float))
        self.assert_same_decisions(np.zeros((7, 7)))

    def test_assign_with_solo_squares(self):
        rng = np.random.default_rng(12)
        for num_ul, num_dl, num_channels in ((40, 80, 96), (3, 5, 6), (6, 2, 7),
                                             (4, 4, 8), (25, 25, 25), (10, 20, 25)):
            square = solo_square(rng, num_ul, num_dl, num_channels)
            self.assert_same_decisions(square.max() - square)

    def test_random_float_rectangles_up_to_40_by_96(self):
        rng = np.random.default_rng(13)
        for n in range(1, 41):
            for m in sorted({n, int(rng.integers(n, 97)), 96}):
                self.assert_same_decisions(rng.normal(0.0, 5.0, size=(n, m)))

    def test_integer_rectangles_full_of_ties(self):
        rng = np.random.default_rng(14)
        for n, m in ((1, 2), (2, 3), (3, 7), (5, 8), (8, 13), (13, 25), (25, 40), (40, 96)):
            for high in (1, 2, 4):
                self.assert_same_decisions(
                    rng.integers(0, high + 1, size=(n, m)).astype(float))
        self.assert_same_decisions(np.zeros((7, 12)))

    def test_assign_with_solo_rectangles(self, monkeypatch):
        # the matrices assign_with_solo itself hands to hungarian_max
        solved = []

        def recording(values):
            solved.append(values)
            return hungarian_max(values)

        monkeypatch.setattr(assignment, "hungarian_max", recording)
        rng = np.random.default_rng(15)
        for num_ul, num_dl, num_channels in ((40, 80, 96), (3, 5, 6), (10, 20, 25), (6, 2, 7)):
            assign_with_solo(*random_solo_inputs(rng, num_ul, num_dl, num_channels), num_channels)
            rect = solved.pop()
            assert rect.shape == (num_ul, num_dl + num_ul - max(0, num_ul + num_dl - num_channels))
            self.assert_same_decisions(rect.max() - rect)

    @pytest.mark.parametrize("config, solves", [
        (canned_experiments("fig3", seed=3, iterations=20), 80),
        (config_from_dict({"num_ul": 40, "num_dl": 80, "num_channels": 96, "seed": 4,
                           "strategies": ["C-HUN", "C-NINT"], "mu_values": [0.5],
                           "weight_modes": ["SR", "PL"], "iterations": 3}), 12),
    ], ids=["fig3", "40+80/96"])
    def test_scheduler_rectangles(self, monkeypatch, tmp_path, config, solves):
        # the rectangles C-HUN and C-NINT solve in a run, SR and PL: their
        # tied benefits make most tree steps zero-slack
        solved = []

        def recording(values):
            solved.append(values)
            return hungarian_max(values)

        monkeypatch.setattr(assignment, "hungarian_max", recording)
        run_experiment(dataclasses.replace(config, out_dir=str(tmp_path)))
        assert len(solved) == solves
        for rect in solved:
            self.assert_same_decisions(rect.max() - rect)

    def test_signed_zeros(self):
        # -0.0 - 0.0 stays -0.0, so reduced costs and slacks carry both zeros
        rng = np.random.default_rng(16)
        for n, m in ((2, 2), (3, 5), (6, 6), (8, 13), (25, 25), (40, 96)):
            for levels in ((0.0, -0.0), (0.0, -0.0, 1.0), (-0.0, 1.0, 2.0)):
                self.assert_same_decisions(rng.choice(levels, size=(n, m)))
            self.assert_same_decisions(np.full((n, m), -0.0))

    def test_shifted_copy_rectangles(self):
        # cost[:, j] = base + s[j] with repeated shifts, the columns the
        # solo_dl shift makes wherever the (Pmax, 0) corner wins: each one
        # dominates every later column of a larger or equal shift
        rng = np.random.default_rng(17)
        for n, m in ((1, 3), (2, 5), (4, 9), (8, 13), (13, 25), (40, 96)):
            for _ in range(4):
                base = rng.integers(0, 3, size=(n, 1)).astype(float)
                cost = base + rng.choice([0.0, 0.5, 1.0, 2.0], size=m)
                self.assert_same_decisions(cost)
                mixed = rng.random(m) < 0.3           # some columns of their own
                cost[:, mixed] = rng.integers(0, 4, size=(n, mixed.sum()))
                self.assert_same_decisions(cost)

    def test_dominance_chains_released_mid_solve(self):
        # chain columns a < b < c with a <= b <= c in every row, among
        # costlier columns: row 0 takes the chain's head, which releases the
        # next link for row 1, and so on down the chain
        rng = np.random.default_rng(18)
        for n, m in ((2, 3), (3, 6), (5, 9), (8, 16), (25, 40)):
            for _ in range(4):
                links = int(rng.integers(2, n + 2))
                chain = np.cumsum(rng.integers(0, 2, size=(n, links)), axis=1)
                chain[0] -= 1                         # row 0 prefers the head
                cost = rng.integers(1, 5, size=(n, m)).astype(float)
                cols = np.sort(rng.choice(m, size=min(links, m), replace=False))
                cost[:, cols] = chain[:, :len(cols)]
                self.assert_same_decisions(cost)

    def test_identical_spare_columns_all_taken(self):
        # k identical columns cheaper than the rest: every copy is matched,
        # each releasing the next
        rng = np.random.default_rng(19)
        for n, m, k in ((2, 3, 2), (4, 6, 3), (6, 9, 6), (10, 14, 7), (40, 96, 40)):
            for _ in range(4):
                cost = rng.integers(2, 5, size=(n, m)).astype(float)
                copies = rng.choice(m, size=k, replace=False)
                cost[:, copies] = rng.integers(0, 2, size=(n, 1))
                self.assert_same_decisions(cost)
                assert set(copies) <= set(_min_cost_assignment(cost))

    def test_pruning_gate(self, monkeypatch):
        # the dominance table is built only from n * (m - n) = 256 entries
        # beyond the square part on: a smaller solve cannot repay it
        tables = []

        def recording_triu(*args, **kwargs):
            tables.append(args[0].shape)
            return triu(*args, **kwargs)

        triu = np.triu
        monkeypatch.setattr(np, "triu", recording_triu)
        rng = np.random.default_rng(20)
        for n, m in ((4, 8), (6, 9), (25, 25), (25, 30), (15, 32), (16, 32), (40, 96)):
            _min_cost_assignment(rng.integers(0, 3, size=(n, m)).astype(float))
        assert tables == [(32, 32), (96, 96)]

    def test_stack_whose_problems_finish_in_different_rounds(self):
        # an all-equal cost inserts each row in one step and leaves the stack
        # after n rounds; the tied and random ones search on, each at its own
        # pace; the costs go in as benefits under zero tops (0.0 - (-c) is c),
        # and under nonzero tops (tops - benefits) the stack reads the same costs
        rng = np.random.default_rng(21)
        for n, m in ((3, 3), (8, 8), (6, 11), (25, 25)):
            costs = np.stack([np.zeros((n, m)), rng.normal(0.0, 5.0, size=(n, m)),
                              rng.integers(0, 3, size=(n, m)).astype(float),
                              np.full((n, m), 2.5), rng.normal(0.0, 1e-3, size=(n, m)),
                              rng.choice([0.0, -0.0, 1.0], size=(n, m))])
            want = [reference_min_cost_assignment(c) for c in costs]
            assert _min_cost_assignments(-costs, np.zeros(len(costs))).tolist() == want
            for cost in costs:
                self.assert_same_decisions(cost)
            tops = rng.integers(0, 4, size=len(costs)).astype(float)
            benefits = tops[:, None, None] - costs
            assert _min_cost_assignments(benefits, tops).tolist() == [
                reference_min_cost_assignment(t - b) for t, b in zip(tops, benefits)]

    def test_tied_stacks_that_end_insertions_in_one_round(self):
        # the -100 dB shape b[i, j] = max(A_i, C_j), a user alone beating
        # every pair, with a few larger full-duplex pairs: several problems
        # end an insertion in the same round, on paths of different lengths
        rng = np.random.default_rng(22)
        for n, count in ((4, 60), (8, 30), (25, 8)):
            benefits = np.maximum(rng.normal(size=(count, n, 1)), rng.normal(size=(count, 1, n)))
            duplex = rng.random(benefits.shape) < 0.1
            benefits[duplex] += rng.random(duplex.sum())
            tops = benefits.max(axis=(1, 2))
            costs = tops[:, None, None] - benefits
            ends = [[] for _ in costs]
            want = [reference_min_cost_assignment(c, e) for c, e in zip(costs, ends)]
            assert _min_cost_assignments(benefits, tops).tolist() == want
            assert [_min_cost_assignment(c) for c in costs] == want
            lengths = {}   # round -> the path lengths of the insertions it ends
            for steps, length in itertools.chain.from_iterable(ends):
                lengths.setdefault(steps, set()).add(length)
            assert any(len(ended) > 1 for ended in lengths.values())
            for cost in costs:
                self.assert_same_decisions(cost)

    def test_all_equal(self):
        # a zero cost makes every tree step zero-slack; a nonzero one every
        # step but the first of each row
        for n, m in ((1, 1), (1, 4), (5, 5), (10, 40), (25, 25), (40, 96)):
            for level in (0.0, 3.5, -1.25):
                self.assert_same_decisions(np.full((n, m), level))


def random_solo_inputs(rng, num_ul, num_dl, num_channels):
    return rng.normal(size=(num_ul, num_dl)), rng.normal(size=num_ul), rng.normal(size=num_dl)


def separable_solo_inputs(rng, num_ul, num_dl, num_channels):
    """values[i, j] = a[i] + b[j] in small integers: every matching of a
    given size ties, so only the tie-break decides."""
    a = rng.integers(0, 3, size=num_ul).astype(float)
    b = rng.integers(0, 3, size=num_dl).astype(float)
    return (a[:, None] + b[None, :], a + rng.integers(-1, 2, size=num_ul),
            b + rng.integers(-1, 2, size=num_dl))


def blind_planner_inputs(rng, num_ul, num_dl, num_channels):
    """What C-NINT plans with: corner benefits with every cross gain zeroed,
    nearly separable in (i, j)."""
    params = ScenarioParams(num_ul=num_ul, num_dl=num_dl, num_channels=num_channels)
    g = drop_gain_table(params, rng)
    blind = GainTable(g.g_ul, g.g_dl, np.zeros_like(g.g_cross))
    best, _, solo_ul, solo_dl = corner_benefit(corner_tables(blind, params),
                                               make_weights(WeightMode.SUM_RATE, g), 0.5)
    return best, solo_ul, solo_dl


SOLO_INPUTS = [random_solo_inputs, separable_solo_inputs, blind_planner_inputs]


def assert_same_results(got, want):
    """The same UL partners of one problem as the reference's (partners,
    total)."""
    assert got.tolist() == want[0].tolist()


def assert_same_stack(got, want):
    """A stacked call's (B, I) partners against the B partner rows of the
    per-problem calls."""
    assert got.shape == (len(want), len(want[0]))
    assert got.tolist() == [p.tolist() for p in want]


class TestRectangleMatchesSquareOracle:
    """assign_with_solo's I-row rectangle against the padded square it
    replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("make_inputs", SOLO_INPUTS)
    @pytest.mark.parametrize("num_ul, num_dl, num_channels", [
        (40, 80, 96), (3, 5, 6), (5, 3, 5), (0, 3, 3), (0, 3, 5), (3, 0, 3), (4, 6, 10)])
    def test_same_total(self, make_inputs, num_ul, num_dl, num_channels):
        rng = np.random.default_rng(16)
        for _ in range(3 if num_ul == 40 else 20):
            inputs = make_inputs(rng, num_ul, num_dl, num_channels)
            partner = assign_with_solo(*inputs, num_channels)
            _, expected = reference_assign_with_solo(*inputs, num_channels)
            values, solo_ul, solo_dl = inputs
            pairs = pairs_of(partner)
            realized = (sum(values[i, j] for i, j in pairs)
                        + sum(solo_ul[i] for i, j in enumerate(partner.tolist()) if j < 0)
                        + sum(solo_dl[j] for j in set(range(num_dl)) - {j for _, j in pairs}))
            assert realized == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert solo_total(values, solo_ul, solo_dl, partner) == pytest.approx(
                realized, rel=1e-12, abs=1e-12)
            assert len(pairs) >= num_ul + num_dl - num_channels

    @pytest.mark.parametrize("make_inputs", SOLO_INPUTS)
    @pytest.mark.parametrize("num_ul, num_dl, num_channels", [
        (5, 3, 5), (3, 0, 3), (4, 4, 4), (25, 25, 25), (10, 4, 10), (6, 2, 6)])
    def test_same_pairing_when_every_dl_user_pairs(self, make_inputs, num_ul, num_dl,
                                                   num_channels):
        rng = np.random.default_rng(17)
        for _ in range(20):
            inputs = make_inputs(rng, num_ul, num_dl, num_channels)
            assert_same_results(assign_with_solo(*inputs, num_channels),
                                reference_assign_with_solo(*inputs, num_channels))


class TestStackedAssignWithSolo:
    """A leading problem axis solves a stack of problems in one call, in
    lockstep where the stack is large enough and the rectangle too narrow
    to prune; each result must equal the problem's own call."""

    @pytest.mark.parametrize("make_inputs", SOLO_INPUTS)
    @pytest.mark.parametrize("num_ul, num_dl, num_channels, lockstep", [
        (0, 3, 3, False), (0, 3, 5, False),                    # no UL user: no problem
        (25, 25, 25, True), (5, 3, 5, True), (4, 4, 4, True),  # J = P: no shift
        (3, 5, 6, True), (6, 2, 7, True), (10, 20, 25, True),  # spare channels, unpruned
        (40, 80, 96, False)])                                  # pruned: one matrix at a time
    def test_stack_equals_the_per_problem_calls(self, monkeypatch, make_inputs, num_ul,
                                                num_dl, num_channels, lockstep):
        rng = np.random.default_rng(30 + num_ul + num_dl)
        count = assignment._LOCKSTEP_MIN_PROBLEMS + 10
        inputs = [make_inputs(rng, num_ul, num_dl, num_channels) for _ in range(count)]
        want = [assign_with_solo(*one, num_channels) for one in inputs]
        stacks = []

        def counted(rects):
            stacks.append(rects.shape)
            return max_assignments(rects)

        max_assignments = assignment._max_assignments
        lockstep_runs = []
        monkeypatch.setattr(assignment, "_max_assignments", counted)
        monkeypatch.setattr(assignment, "_min_cost_assignments",
                            lambda *args, _solve=assignment._min_cost_assignments:
                            lockstep_runs.append(args[0].shape) or _solve(*args))
        got = assign_with_solo(*map(np.stack, zip(*inputs)), num_channels)
        assert_same_stack(got, want)
        assert stacks == ([] if num_ul == 0 else [(count, num_ul, num_dl + num_ul - max(
            0, num_ul + num_dl - num_channels))])
        assert lockstep_runs == (stacks if lockstep else [])

    def test_stack_below_the_gate_goes_one_matrix_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(31)
        count = assignment._LOCKSTEP_MIN_PROBLEMS - 1
        inputs = [random_solo_inputs(rng, 5, 5, 5) for _ in range(count)]
        solved = []
        monkeypatch.setattr(assignment, "hungarian_max",
                            lambda values, _solve=hungarian_max:
                            solved.append(values) or _solve(values))
        got = assign_with_solo(*map(np.stack, zip(*inputs)), 5)
        assert len(solved) == count
        assert_same_stack(got, [assign_with_solo(*one, 5) for one in inputs])

    def test_rejects_mismatched_stacks(self):
        with pytest.raises(ValueError):
            assign_with_solo(np.ones((2, 3, 3)), np.ones((3, 3)), np.ones((3, 3)), 3)
        with pytest.raises(ValueError):
            assign_with_solo(np.ones((2, 3, 3)), np.ones((2, 3)), np.ones((1, 3)), 3)
        with pytest.raises(ValueError, match="non-finite"):
            values = np.ones((assignment._LOCKSTEP_MIN_PROBLEMS, 3, 3))
            values[1, 2, 0] = np.nan
            assign_with_solo(values, np.ones(values.shape[:2]), np.ones(values.shape[:2]), 3)


def assert_lockstep_stacks_optimal(monkeypatch, cfg, shapes):
    # the benchmark's assignment oracle sees hungarian_max only; re-solve
    # every problem of a run's lockstep stacks (square, so no padding) with
    # scipy and compare totals
    stacks, lockstep = [], []

    def recorded(rects, _solve=assignment._max_assignments):
        solved = _solve(rects)
        if len(rects) >= assignment._LOCKSTEP_MIN_PROBLEMS:
            stacks.append((rects.copy(), solved))
        return solved

    monkeypatch.setattr(assignment, "_max_assignments", recorded)
    monkeypatch.setattr(assignment, "_min_cost_assignments",
                        lambda *args, _solve=assignment._min_cost_assignments:
                        lockstep.append(args[0].shape) or _solve(*args))
    run_experiment(cfg)
    assert [rects.shape for rects, _ in stacks] == lockstep == shapes
    for rects, solved in stacks:
        for rect, cols in zip(rects, solved):
            rows, picked = linear_sum_assignment(rect, maximize=True)
            total = float(rect[np.arange(len(cols)), cols].sum())
            assert total == pytest.approx(float(rect[rows, picked].sum()), rel=1e-9, abs=0.0)
            assert sorted(cols.tolist()) == list(range(rect.shape[0]))   # a full matching


def test_every_stacked_problem_of_a_fig3_run_is_optimal(monkeypatch, tmp_path):
    monkeypatch.setattr(assignment, "hungarian_max", lambda values: pytest.fail(
        "a fig3 stack above the gate went one matrix at a time"))
    assert_lockstep_stacks_optimal(
        monkeypatch, canned_experiments("fig3", seed=9, iterations=30, out_dir=str(tmp_path)),
        [(60, 25, 25)] * 2)   # C-HUN, C-NINT


def test_every_stacked_problem_of_a_fig2_run_is_optimal(monkeypatch, tmp_path):
    # P-OPT's max-sum assignments, one a drop, reach the gate in one chunk,
    # and so does its first threshold round, one problem a drop; its later
    # rounds hold a few drops and go one matrix at a time
    drops = assignment._LOCKSTEP_MIN_PROBLEMS + 10
    assert_lockstep_stacks_optimal(
        monkeypatch, canned_experiments("fig2", seed=9, iterations=drops, out_dir=str(tmp_path)),
        [(drops, 4, 4), (drops, 4, 4), (3 * drops, 4, 4)])   # P-OPT twice, C-HUN at 3 mu


class TestBruteForce:
    def test_single_cell(self):
        assert brute_force_assignment([[7.0]]) == ({0: 0}, 7.0)

    def test_two_by_two_antidiagonal(self):
        assignment, total = brute_force_assignment([[1.0, 2.0], [2.0, 1.0]])
        assert total == 4.0
        assert assignment == {0: 1, 1: 0}

    def test_beats_every_fixed_permutation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = rng.normal(size=(n, n))
            _, total = brute_force_assignment(m)
            for _ in range(10):
                perm = rng.permutation(n)
                assert total >= float(m[np.arange(n), perm].sum()) - 1e-12

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_assignment(np.zeros((10, 10)))


class TestAssignWithSolo:
    def test_full_load_forces_perfect_matching(self):
        # I = J = F: the channel budget leaves no solo slots
        values, solo = np.full((2, 2), -100.0), np.array([50.0, 50.0])
        partner = assign_with_solo(values, solo, solo, num_channels=2)
        total = solo_total(values, solo, solo, partner)
        assert len(pairs_of(partner)) == 2
        assert total == -200.0

    def test_dominant_pairs_selected_when_beneficial(self):
        values = np.array([[10.0, 1.0], [1.0, 10.0]])
        partner = assign_with_solo(values, np.ones(2), np.ones(2), num_channels=4)
        total = solo_total(values, np.ones(2), np.ones(2), partner)
        assert partner.tolist() == [0, 1]
        assert total == 20.0

    def test_everyone_solo_when_pairing_is_bad(self):
        values = np.array([[0.5, 0.25], [0.25, 0.5]])
        solo_ul, solo_dl = np.array([2.0, 3.0]), np.array([4.0, 5.0])
        partner = assign_with_solo(values, solo_ul, solo_dl, num_channels=4)
        total = solo_total(values, solo_ul, solo_dl, partner)
        assert partner.tolist() == [-1, -1]
        assert total == pytest.approx(14.0)

    def test_single_ul_user_no_dl(self):
        partner = assign_with_solo(np.zeros((1, 0)), np.array([3.0]), np.zeros(0), num_channels=1)
        total = solo_total(np.zeros((1, 0)), np.array([3.0]), np.zeros(0), partner)
        assert partner.tolist() == [-1]
        assert total == 3.0

    def test_channel_budget_forces_some_pairs(self):
        # 2+2 users on 3 channels: exactly one pair is forced even though
        # every solo score dominates every pair score
        values = np.array([[1.0, 0.0], [0.0, 0.5]])
        solo = np.array([10.0, 10.0])
        partner = assign_with_solo(values, solo, solo, num_channels=3)
        total = solo_total(values, solo, solo, partner)
        assert partner.tolist() == [0, -1]
        assert pairs_of(partner) == [(0, 0)]
        assert total == pytest.approx(21.0)

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError):
            assign_with_solo(np.ones((3, 1)), np.ones(3), np.ones(1), num_channels=2)

    def test_shape_mismatch_rejected(self):
        # a (1, J) row would otherwise broadcast over every UL user
        with pytest.raises(ValueError):
            assign_with_solo(np.array([[5.0, 1.0]]), np.ones(3), np.ones(2), num_channels=3)

    def test_output_is_valid_pairing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            num_ul = int(rng.integers(1, 5))
            num_dl = int(rng.integers(1, 5))
            channels = int(rng.integers(max(num_ul, num_dl), num_ul + num_dl + 2))
            partner = assign_with_solo(rng.normal(size=(num_ul, num_dl)),
                                          rng.normal(size=num_ul), rng.normal(size=num_dl),
                                          channels)
            assert partner.shape == (num_ul,) and partner.dtype == np.intp
            x = pairing_matrix(partner, num_dl)
            assert x.sum(axis=0).max(initial=0) <= 1
            assert x.sum(axis=1).max(initial=0) <= 1
            assert len(pairs_of(partner)) >= max(0, num_ul + num_dl - channels)

    def test_total_is_achievable_best_by_enumeration(self):
        # cross-check the augmented construction against direct enumeration
        rng = np.random.default_rng(8)
        for _ in range(30):
            num_ul, num_dl, channels = 2, 2, int(rng.integers(2, 5))
            values = rng.normal(size=(num_ul, num_dl))
            solo_ul = rng.normal(size=num_ul)
            solo_dl = rng.normal(size=num_dl)
            total = solo_total(values, solo_ul, solo_dl,
                               assign_with_solo(values, solo_ul, solo_dl, channels))
            best = -np.inf
            import itertools
            for n_pairs in range(max(0, 4 - channels), 3):
                for us in itertools.combinations(range(2), n_pairs):
                    for ds in itertools.permutations(range(2), n_pairs):
                        t = sum(values[i, j] for i, j in zip(us, ds))
                        t += sum(solo_ul[i] for i in range(2) if i not in us)
                        t += sum(solo_dl[j] for j in range(2) if j not in ds)
                        best = max(best, t)
            assert total == pytest.approx(best, rel=1e-12)
