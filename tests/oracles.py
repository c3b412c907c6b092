"""Scalar reference implementations that the tests compare the package
against: per-link SINRs, the pair benefit formula, the SE formula at any
(p_u, p_d) candidates, the log-spaced edge powers and the closed-form
max-min powers of one pair, the corner-point evaluation of one pair, the
stand-alone evaluation of one user, the per-user outcome evaluation of a
schedule, a brute-force assignment, the padded-square form of the
solo-aware assignment and a schedule's total under its scores, P-OPT's
threshold scans one drop and one threshold at a time, the
one-candidate-at-a-time UE placement, the link-group-at-a-time gain
table, the pairs and 0/1 matrix of a row of UL partners, the
per-combination drop loop that solves every strategy once
for each (mu, weight mode), the CDF files and summary of a run's records
gathered record by record, and the closed-form solution of the dual
linear program that motivates the Hungarian heuristic.

They are written one user or one permutation at a time, independent of
the vectorized code they check.  The readers of a run's outputs (a CDF
file, a dumped scenario) and the median gap of two CDFs, which only the
tests use, are here too, and so are the list of modules a script loads in
a fresh interpreter, the one-drop forms of build_gain_table's and the
strategies' calls (chunk_of, drop_views), the per-objective view of a
drop's Outcomes (ScheduleOutcome, outcome_views) and the one-schedule form
of the evaluator's (evaluate_schedule).
"""

import bisect
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fdsched.assignment import assign_with_solo, hungarian_max, min_pairs
from fdsched.harness import (_ROLE_SCENARIO, _ROLE_STRATEGY, METRIC_NAMES, _gain_hash,
                             drop_rng)
from fdsched.metrics import CdfSeries, jain_index, percentile
from fdsched.model import (DropPositions, GainTable, Outcomes, ScenarioParams, WeightVector,
                           _readonly)
from fdsched.radio import (CornerTables, check_mu, corner_points, objective_value,
                           outcome_metrics, sinr)
from fdsched.scenario import (
    _HEX_NORMALS,
    _MAX_PLACEMENT_ATTEMPTS,
    build_gain_table,
    link_gain,
    los_probability,
)
from fdsched.solvers import _best_corner_assignments, solve

_BRUTE_FORCE_MAX_SIZE = 9


def chunk_of(gains: GainTable) -> GainTable:
    """A one-drop chunk of the drop gains (its arrays with a leading axis of 1)."""
    return GainTable(gains.g_ul[None], gains.g_dl[None], gains.g_cross[None])


def drop_views(chunk: GainTable) -> list[GainTable]:
    """Every drop of a chunk (build_gain_table's result), in order."""
    return [chunk.drop(d) for d in range(len(chunk.g_ul))]


@dataclass(frozen=True)
class ScheduleOutcome:
    """One drop's outcome under one objective: its schedule (partner_ul[i]
    the DL user paired with UL user i, -1 alone; p_ul and p_dl in watts)
    with its SEs, its objective value and its metrics.  Arrays are
    read-only."""

    partner_ul: np.ndarray
    p_ul: np.ndarray
    p_dl: np.ndarray
    se_ul: np.ndarray      # bit/s/Hz per UL user
    se_dl: np.ndarray      # bit/s/Hz per DL user
    objective: float
    sum_se: float
    min_se: float
    jain: float

    def __post_init__(self):
        object.__setattr__(self, "partner_ul", _readonly(self.partner_ul, np.intp))
        for name in ("p_ul", "p_dl", "se_ul", "se_dl"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def outcome_views(outcomes: Outcomes, d: int = 0) -> list[ScheduleOutcome]:
    """Drop d of a chunk's Outcomes as one ScheduleOutcome per objective,
    over the rows of the schedule each objective chose."""
    return [ScheduleOutcome(outcomes.partner_ul[s], outcomes.p_ul[s], outcomes.p_dl[s],
                            outcomes.se_ul[s], outcomes.se_dl[s], float(objective),
                            float(outcomes.sum_se[s]), float(outcomes.min_se[s]),
                            float(outcomes.jain[s]))
            for s, objective in zip(outcomes.schedule[d], outcomes.objective[d])]


def solve_drop(name, gains, params, objectives, rng=None):
    """solvers.solve on the one drop (gains, rng): its outcome list."""
    return outcome_views(solve(name, chunk_of(gains), None if rng is None else [rng], params,
                               objectives))


def drop_gain_table(params, rng) -> GainTable:
    """build_gain_table on the one generator rng: its gain table."""
    return build_gain_table(params, [rng]).drop(0)


def one_drop(strategy, gains, params, objectives, rng=None):
    """A strategy function on the one drop (gains, rng) with its list of
    (weights, mu) objectives: its outcome list.  Objectives that share a
    weight vector share its one-drop chunk form too."""
    chunked = {id(w): WeightVector(w.alpha_ul[None], w.alpha_dl[None]) for w, _ in objectives}
    return outcome_views(strategy(chunk_of(gains), None if rng is None else [rng], params,
                                  [(chunked[id(w)], mu) for w, mu in objectives]))


def benefit_value(c_u, c_d, alpha_u, alpha_d, mu):
    """Pair benefit (1-mu)(a_u c_u + a_d c_d) + mu min(c_u, c_d), the formula
    that radio.corner_benefit evaluates in place."""
    return (1.0 - mu) * (alpha_u * c_u + alpha_d * c_d) + mu * np.minimum(c_u, c_d)


def sinr_ul(p_u: float, g_ib: float, p_d_paired: float, beta: float, noise: float) -> float:
    """UL SINR at the BS: p_u g_ib / (noise + p_d_paired * beta).

    p_d_paired is the DL power sharing the channel, 0 when unpaired.
    """
    return p_u * g_ib / (noise + p_d_paired * beta)


def sinr_dl(p_d: float, g_bj: float, p_u_paired: float, g_ij: float, noise: float) -> float:
    """DL SINR at the UE: p_d g_bj / (noise + p_u_paired * g_ij)."""
    return p_d * g_bj / (noise + p_u_paired * g_ij)


def power_candidates(gains: GainTable, params: ScenarioParams,
                     candidates) -> tuple[np.ndarray, np.ndarray]:
    """The SE of every (i, j, candidate) for candidate (p_u, p_d) pairs, as
    (I, 1, C) UL and (I, J, C) DL arrays: the SINR formula at each
    candidate, with no special case for a zero power."""
    noise = params.noise_power_w
    p_u = np.array([c[0] for c in candidates])
    p_d = np.array([c[1] for c in candidates])
    se_ul = np.log2(1.0 + sinr(p_u, gains.g_ul[:, None, None], p_d,
                               params.si_cancellation, noise))
    se_dl = np.log2(1.0 + sinr(p_d, gains.g_dl[None, :, None], p_u,
                               gains.g_cross[:, :, None], noise))
    return se_ul, se_dl


def tie_heavy_drop(rng, num_ul: int, num_dl: int, direct=(1e-9, 1e-7),
                   cross=(1e-9, 1e-7)) -> GainTable:
    """Direct gains drawn from the two levels of direct and cross gains from
    those of cross, so many matchings, combos and corners tie."""
    return GainTable(g_ul=rng.choice(direct, size=num_ul), g_dl=rng.choice(direct, size=num_dl),
                     g_cross=rng.choice(cross, size=(num_ul, num_dl)))


def corner_se(tables: CornerTables) -> tuple[np.ndarray, np.ndarray]:
    """The UL and DL SE of every (i, j, corner) as two (I, J, 3) arrays, the
    corner axis in corner_points order, rebuilt from a CornerTables: UL reads
    (paired, solo, 0) and DL (paired, 0, solo)."""
    shape = (*tables.paired_se_dl.shape, 3)
    se_ul, se_dl = np.zeros(shape), np.zeros(shape)
    se_ul[:, :, 0] = tables.paired_se_ul[:, None]
    se_ul[:, :, 1] = tables.solo_se_ul[:, None]
    se_dl[:, :, 0] = tables.paired_se_dl
    se_dl[:, :, 2] = tables.solo_se_dl
    return se_ul, se_dl


def pair_edge_powers(params: ScenarioParams, points: int = 4001) -> tuple[np.ndarray, np.ndarray]:
    """(p_u, p_d) arrays on the two edges of a pair's power square where one
    power is at its cap, the other log-spaced from 1e-14 of its cap up to
    the cap: first p_u = Pmax_u, then p_d = Pmax_d.  Scaling both powers up
    raises both SINRs, so an objective that grows in both SEs peaks there."""
    ramp = np.logspace(-14.0, 0.0, points)
    p_u, p_d = params.p_max_ul_w, params.p_max_dl_w
    return (np.concatenate([np.full(points, p_u), p_u * ramp]),
            np.concatenate([p_d * ramp, np.full(points, p_d)]))


def pair_max_min_powers(g_u: float, g_d: float, g_c: float,
                        params: ScenarioParams) -> tuple[float, float]:
    """The (p_u, p_d) that maximize the smaller SE of one pair: its two
    SINRs equal, one power at its cap.  With p_u = Pmax_u, p_d solves
    beta g_d p_d^2 + N g_d p_d - Pmax_u g_u (N + Pmax_u g_c) = 0; if that
    root exceeds Pmax_d, p_d = Pmax_d and p_u solves the mirror quadratic
    g_c g_u p_u^2 + N g_u p_u - Pmax_d g_d (N + Pmax_d beta) = 0."""
    noise, beta = params.noise_power_w, params.si_cancellation
    cap_u, cap_d = params.p_max_ul_w, params.p_max_dl_w

    def root(a, b, c):   # a x^2 + b x - c = 0, cancellation-free
        return 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))

    p_d = root(beta * g_d, noise * g_d, cap_u * g_u * (noise + cap_u * g_c))
    if p_d <= cap_d:
        return cap_u, p_d
    return root(g_c * g_u, noise * g_u, cap_d * g_d * (noise + cap_d * beta)), cap_d


@dataclass(frozen=True)
class PairEvaluation:
    """Best corner of one candidate pair and its benefit."""

    ul_index: int
    dl_index: int
    best_powers: tuple[float, float]
    se_ul: float
    se_dl: float
    benefit: float


def evaluate_pair(
    i: int,
    j: int,
    gains: GainTable,
    params: ScenarioParams,
    weights: WeightVector,
    mu: float,
) -> PairEvaluation:
    """Evaluate the three power corners of pair (i, j) and keep the argmax.

    Ties resolve toward (Pmax, Pmax), then (Pmax, 0): serve both users when
    the benefit does not say otherwise.
    """
    noise = params.noise_power_w
    alpha_u = weights.alpha_ul[i]
    alpha_d = weights.alpha_dl[j]
    best = None
    for p_u, p_d in corner_points(params):
        c_u = math.log2(1.0 + sinr_ul(p_u, gains.g_ul[i], p_d, params.si_cancellation, noise))
        c_d = math.log2(1.0 + sinr_dl(p_d, gains.g_dl[j], p_u, gains.g_cross[i, j], noise))
        s = benefit_value(c_u, c_d, alpha_u, alpha_d, mu)
        if best is None or s > best.benefit:
            best = PairEvaluation(i, j, (p_u, p_d), c_u, c_d, s)
    return best


def evaluate_solo_ul(i: int, gains: GainTable, params: ScenarioParams,
                     weights: WeightVector, mu: float) -> tuple[float, float]:
    """(SE, weighted-sum contribution) of UL user i alone at max power."""
    se = math.log2(1.0 + sinr_ul(params.p_max_ul_w, gains.g_ul[i], 0.0,
                                 params.si_cancellation, params.noise_power_w))
    return se, (1.0 - mu) * weights.alpha_ul[i] * se


def evaluate_solo_dl(j: int, gains: GainTable, params: ScenarioParams,
                     weights: WeightVector, mu: float) -> tuple[float, float]:
    """(SE, weighted-sum contribution) of DL user j alone at max power."""
    se = math.log2(1.0 + sinr_dl(params.p_max_dl_w, gains.g_dl[j], 0.0, 0.0,
                                 params.noise_power_w))
    return se, (1.0 - mu) * weights.alpha_dl[j] * se


def reference_outcome_metrics(partner_ul, p_ul, p_dl, gains: GainTable,
                              params: ScenarioParams, weights: WeightVector,
                              mu: float) -> ScheduleOutcome:
    """radio.outcome_metrics and objective_value on one schedule of one
    drop, one user at a time: UL user i pairs DL user partner_ul[i] (-1:
    alone), a paired user's interference comes from its partner's power,
    an unpaired user sees noise only."""
    noise = params.noise_power_w
    partner_dl = [-1] * gains.num_dl
    for i, j in enumerate(partner_ul):
        if j >= 0:
            partner_dl[j] = i
    se_ul = np.zeros(gains.num_ul)
    se_dl = np.zeros(gains.num_dl)
    for i in range(gains.num_ul):
        j = partner_ul[i]
        p_d = p_dl[j] if j >= 0 else 0.0
        se_ul[i] = math.log2(1.0 + sinr_ul(p_ul[i], gains.g_ul[i], p_d,
                                           params.si_cancellation, noise))
    for j in range(gains.num_dl):
        i = partner_dl[j]
        p_u = p_ul[i] if i >= 0 else 0.0
        g_x = gains.g_cross[i, j] if i >= 0 else 0.0
        se_dl[j] = math.log2(1.0 + sinr_dl(p_dl[j], gains.g_dl[j], p_u, g_x, noise))

    all_se = np.concatenate([se_ul, se_dl])
    weighted = float(weights.alpha_ul @ se_ul + weights.alpha_dl @ se_dl)
    min_se = float(all_se.min())
    return ScheduleOutcome(
        partner_ul=partner_ul,
        p_ul=p_ul,
        p_dl=p_dl,
        se_ul=se_ul,
        se_dl=se_dl,
        objective=(1.0 - mu) * weighted + mu * min_se,
        sum_se=float(all_se.sum()),
        min_se=min_se,
        jain=jain_index(all_se),
    )


def evaluate_schedule(partner_ul, p_ul, p_dl, gains: GainTable, params: ScenarioParams,
                      weights: WeightVector, mu: float) -> ScheduleOutcome:
    """radio.outcome_metrics and objective_value on the one schedule
    (partner_ul, p_ul, p_dl) of the one drop gains: its outcome."""
    [se_ul], [se_dl], [sum_se], [min_se], [jain] = outcome_metrics(
        chunk_of(gains), params, [0], [partner_ul], [p_ul], [p_dl])
    return ScheduleOutcome(partner_ul, p_ul, p_dl, se_ul, se_dl,
                           float(objective_value(se_ul, se_dl, min_se, weights, mu)),
                           float(sum_se), float(min_se), float(jain))


def all_se(outcome: ScheduleOutcome) -> np.ndarray:
    """Every user's SE of an outcome, UL users first."""
    return np.concatenate([outcome.se_ul, outcome.se_dl])


def pairs_of(partner_ul) -> list[tuple[int, int]]:
    """The (UL, DL) pairs of a row of UL partners, in UL order."""
    return [(i, j) for i, j in enumerate(np.asarray(partner_ul).tolist()) if j >= 0]


def pairing_matrix(partner_ul, num_dl: int) -> np.ndarray:
    """0/1 matrix of the pairs of a row of UL partners."""
    x = np.zeros((len(partner_ul), num_dl))
    for i, j in pairs_of(partner_ul):
        x[i, j] += 1.0
    return x


def solo_total(values, solo_ul, solo_dl, partner_ul) -> float:
    """The total benefit of the schedule partner_ul under assign_with_solo's
    scores: values[i, j] for each pair (i, j), solo_ul[i] and solo_dl[j]
    for each user alone."""
    partner_ul = np.asarray(partner_ul)
    paired = partner_ul >= 0
    alone_dl = np.ones(len(solo_dl), dtype=bool)
    alone_dl[partner_ul[paired]] = False
    return float(values[np.flatnonzero(paired), partner_ul[paired]].sum()
                 + solo_ul[~paired].sum() + solo_dl[alone_dl].sum())


def brute_force_assignment(values) -> tuple[dict[int, int], float]:
    """Exact maximum-total assignment by enumerating all permutations of the
    zero-padded square, with hungarian_max's contract: only assignments
    inside the original matrix are reported.

    Guarded to padded size 9; beyond that the factorial blows up.  Ties
    resolve to the lexicographically first permutation.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("assignment needs a nonempty 2-D matrix")
    rows, cols = values.shape
    n = max(rows, cols)
    if n > _BRUTE_FORCE_MAX_SIZE:
        raise ValueError(f"brute force limited to padded size {_BRUTE_FORCE_MAX_SIZE}, "
                         f"got {n}")
    best_perm = None
    best_total = -np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(values[r, perm[r]] for r in range(rows) if perm[r] < cols)
        if total > best_total:
            best_total = total
            best_perm = perm
    assignment = {r: best_perm[r] for r in range(rows) if best_perm[r] < cols}
    selected = sorted(assignment)
    total = float(values[selected, [assignment[r] for r in selected]].sum()) if selected else 0.0
    return assignment, total


def reference_assign_with_solo(values, solo_ul, solo_dl, num_channels):
    """assign_with_solo as one square problem: UL i meets DL j at
    values[i, j], each UL user's solo score fills I - P dummy columns, each
    DL user's solo score fills J - P dummy rows, zeros where dummies meet.
    P = max(0, I + J - num_channels) pairs are forced.  Solved with the
    package's hungarian_max, so it checks the reduction, not the solver."""
    num_ul, num_dl = len(solo_ul), len(solo_dl)
    forced_pairs = max(0, num_ul + num_dl - num_channels)
    size = num_ul + num_dl - forced_pairs
    square = np.zeros((size, size))
    square[:num_ul, :num_dl] = values
    square[:num_ul, num_dl:] = solo_ul[:, None]
    square[num_ul:, :num_dl] = solo_dl[None, :]
    mapping, total = hungarian_max(square)
    partner_ul = np.full(num_ul, -1)
    for r, c in mapping.items():
        if r < num_ul and c < num_dl:
            partner_ul[r] = c
    return partner_ul, total


def _reference_scored(tables: CornerTables, weights: WeightVector, partner_ul, corners):
    """(partner_ul, corners, weighted sum, minimum) of one drop's corner
    schedule's corner-table SEs."""
    se_ul, se_dl = tables.solo_se_ul.copy(), tables.solo_se_dl.copy()
    i = np.flatnonzero(partner_ul >= 0)
    j, corner = partner_ul[i], corners[i]
    se_ul[i] = np.where(corner == 0, tables.paired_se_ul[i], np.where(corner == 1, se_ul[i], 0.0))
    se_dl[j] = np.where(corner == 0, tables.paired_se_dl[i, j],
                        np.where(corner == 1, 0.0, se_dl[j]))
    return (partner_ul, corners, float(weights.alpha_ul @ se_ul + weights.alpha_dl @ se_dl),
            float(np.concatenate([se_ul, se_dl]).min()))


def reference_drop_scan(tables: CornerTables, params: ScenarioParams,
                        weights: list[WeightVector], max_sum: list[np.ndarray],
                        plan_of: list[int], mus: list[float]) -> tuple[list[tuple], int]:
    """One drop's P-OPT threshold scans, one objective and one threshold at
    a time: ((UL partners, corners) per objective, the number of threshold
    assignments solved).  Objective n scans on weights[plan_of[n]] from row
    plan_of[n] of max_sum's UL partners and corners; the thresholds are the
    sorted pair minima up to the cap, and each weight vector's scans share
    one cache of threshold schedules."""
    se_ul, se_dl = tables.paired_se_ul, tables.paired_se_dl
    num_ul, num_dl = se_dl.shape
    pair_min = np.minimum(se_ul[:, None], se_dl)
    cap = float(np.concatenate([tables.solo_se_ul, tables.solo_se_dl]).min())
    forced = min_pairs(num_ul, num_dl, params.num_channels)
    for axis, users in ((1, num_ul), (0, num_dl)):
        if users and forced == users:   # each of these users pairs
            cap = min(cap, float(pair_min.max(axis=axis).min()))
    thresholds = sorted({*pair_min[pair_min <= cap].tolist(), cap})
    schedules, solved = [None] * len(mus), 0
    for plan, w in enumerate(weights):
        values = (w.alpha_ul * se_ul)[:, None] + w.alpha_dl * se_dl
        solo_ul = w.alpha_ul * tables.solo_se_ul
        solo_dl = w.alpha_dl * tables.solo_se_dl
        penalty = -1.0 - 4.0 * (abs(values).sum() + abs(solo_ul).sum() + abs(solo_dl).sum())
        first = _reference_scored(tables, w, *(a[plan] for a in max_sum))
        scanned = {}   # threshold -> its scored schedule, or None if none is feasible

        def best_at(t):
            if t not in scanned:
                partner = assign_with_solo(np.where(pair_min < t, penalty, values),
                                           solo_ul, solo_dl, params.num_channels)
                i = np.flatnonzero(partner >= 0)
                scanned[t] = (_reference_scored(tables, w, partner, np.zeros(num_ul, np.int8))
                              if (pair_min[i, partner[i]] >= t).all() else None)
            return scanned[t]

        for n, mu in enumerate(mus):
            if plan_of[n] != plan:
                continue
            _, _, bound, low = first
            best, value, k = first, (1.0 - mu) * bound + mu * low, 0
            while k < len(thresholds) and (1.0 - mu) * bound + mu * cap > value:
                found = best_at(thresholds[k])
                if found is None:
                    break
                _, _, bound, low = found
                found_value = (1.0 - mu) * bound + mu * low
                if found_value > value:
                    best, value = found, found_value
                k = bisect.bisect_right(thresholds, low)
            schedules[n] = best[:2]
        solved += len(scanned)
    return schedules, solved


def reference_p_opt_schedules(tables: CornerTables, params: ScenarioParams, objectives):
    """P-OPT's (D, K, I) UL partners and corners for a chunk's corner tables
    and objectives, with each drop's threshold scans run on their own
    (reference_drop_scan) from the package's max-sum plans, and the number
    of threshold assignments the drops solved."""
    distinct = list({id(w): w for w, _ in objectives}.values())
    plan_of = [[id(v) for v in distinct].index(id(w)) for w, _ in objectives]
    max_sum = _best_corner_assignments(tables, [(w, 0.0) for w in distinct],
                                       params.num_channels)
    mus = [mu for _, mu in objectives]
    plans, solved = zip(*(reference_drop_scan(
        CornerTables(*(a[d] for a in vars(tables).values())), params,
        [WeightVector(w.alpha_ul[d], w.alpha_dl[d]) for w in distinct],
        [a[d] for a in max_sum], plan_of, mus) for d in range(len(tables.paired_se_dl))))
    return (np.array([[partner for partner, _ in drop] for drop in plans]),
            np.array([[corners for _, corners in drop] for drop in plans]), sum(solved))


def reference_drop_users(params: ScenarioParams, rng) -> DropPositions:
    """drop_users one candidate at a time: draw a point of the bounding
    square, keep it if it lies inside the hexagon and at least
    min_bs_ue_distance_m from the BS, give up on a UE after
    _MAX_PLACEMENT_ATTEMPTS rejections.  UL users first, then DL users."""
    r = params.cell_radius_m
    apothem = r * math.sqrt(3) / 2
    placed = []
    for _ in range(params.num_ul + params.num_dl):
        for _attempt in range(_MAX_PLACEMENT_ATTEMPTS):
            candidate = rng.uniform(-r, r, size=2)
            if (np.all(np.abs(_HEX_NORMALS @ candidate) <= apothem)
                    and np.hypot(*candidate) >= params.min_bs_ue_distance_m):
                placed.append(candidate)
                break
        else:
            raise ValueError(
                "could not place a UE inside the cell; check cell_radius_m "
                "against min_bs_ue_distance_m")
    pts = np.array(placed).reshape(-1, 2)
    return DropPositions(bs=np.zeros(2), ul=pts[:params.num_ul], dl=pts[params.num_ul:])


def reference_build_gain_table(params: ScenarioParams, rng) -> GainTable:
    """build_gain_table one link group at a time, on reference_drop_users:
    the UL links' states and gains, then the DL links', then the cross
    links' (row-major), each group with its own draws and formulas."""
    positions = reference_drop_users(params, rng)
    d_ul = np.hypot(positions.ul[:, 0], positions.ul[:, 1])
    d_dl = np.hypot(positions.dl[:, 0], positions.dl[:, 1])
    d_cross = np.hypot(
        positions.ul[:, None, 0] - positions.dl[None, :, 0],
        positions.ul[:, None, 1] - positions.dl[None, :, 1],
    )
    gains = []
    for d in (d_ul, d_dl, d_cross):
        u = rng.random(d.shape)
        z = rng.standard_normal(d.shape)
        los = u < los_probability(d)
        gains.append(link_gain(d, los, np.where(los, z * 3.0, z * 4.0)))
    return GainTable(*gains, positions=positions)


def reference_drop_records(cfg, drop_index: int) -> list[dict]:
    """harness._run_chunk's records of one drop, as the dicts whose
    json.dumps with sorted keys are its records.jsonl lines, with every
    strategy solved afresh, alone, for every (mu, weight mode), its
    generator rewound before each solve."""
    master = cfg.params.rng_seed
    gains = drop_gain_table(cfg.params, drop_rng(master, drop_index, _ROLE_SCENARIO))
    strategy_rng = drop_rng(master, drop_index, _ROLE_STRATEGY)
    strategy_state = strategy_rng.bit_generator.state
    records = []
    for mode in cfg.weight_modes:
        for mu in cfg.mu_values:
            for name in cfg.strategies:
                strategy_rng.bit_generator.state = strategy_state
                [outcome] = solve_drop(name, gains, cfg.params, [(mode, mu)], strategy_rng)
                records.append(dict(
                    drop=drop_index,
                    strategy=name,
                    mu=mu,
                    weight_mode=mode.value,
                    objective=outcome.objective,
                    sum_se=outcome.sum_se,
                    min_se=outcome.min_se,
                    jain=outcome.jain,
                    se_ul=outcome.se_ul.tolist(),
                    se_dl=outcome.se_dl.tolist(),
                    seed=f"{master}:{drop_index}",
                    gain_hash=_gain_hash(gains),
                ))
    return records


def reference_cdfs_and_summary(cfg, records) -> dict[str, str]:
    """The text of each cdf_*.csv file and of summary.json for a run of cfg
    whose records are records: each combination's samples gathered record
    by record and sorted alone by np.sort, each row spelled with repr, and
    the median the nearest-rank one of the sorted samples."""
    files, medians, gaps = {}, {}, {}
    for mode in cfg.weight_modes:
        for mu in cfg.mu_values:
            tag = f"mu={mu}|{mode.value}"
            for strategy in cfg.strategies:
                combo = [r for r in records if (r["strategy"], r["mu"], r["weight_mode"])
                         == (strategy, mu, mode.value)]
                for metric in METRIC_NAMES:
                    values = np.sort(np.array([r[metric] for r in combo], dtype=float))
                    n = len(values)
                    lines = [f"# {metric},{strategy},{float(mu)!r},{mode.value}",
                             "value,probability"]
                    lines += [f"{float(v)!r},{k / n!r}" for k, v in enumerate(values, 1)]
                    name = f"cdf_{metric}_{strategy}_mu{mu}_{mode.value}.csv"
                    files[name] = "\n".join(lines) + "\n"
                    medians[f"{metric}|{strategy}|{tag}"] = float(values[math.ceil(n / 2) - 1])
            for metric in METRIC_NAMES:
                for a, b in itertools.permutations(cfg.strategies, 2):
                    pa, pb = medians[f"{metric}|{a}|{tag}"], medians[f"{metric}|{b}|{tag}"]
                    gaps[f"{metric}|{a}-vs-{b}|{tag}"] = (pa - pb) / pb if pb != 0 else None
    summary = {"name": cfg.name, "iterations": cfg.iterations,
               "master_seed": cfg.params.rng_seed, "medians": medians, "gaps": gaps}
    files["summary.json"] = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    return files


def read_cdf_csv(path) -> tuple[tuple, CdfSeries]:
    """A cdf_*.csv file as harness writes it: its header's labels (metric,
    strategy, mu, weight mode) and its CDF."""
    lines = Path(path).read_text().splitlines()
    metric, strategy, mu, mode = lines[0].removeprefix("# ").split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return (metric, strategy, float(mu), mode), CdfSeries(
        values=np.array([float(r[0]) for r in rows]),
        probabilities=np.array([float(r[1]) for r in rows]))


def median_gap(a: CdfSeries, b: CdfSeries) -> float:
    """Relative difference of medians, (p50(a) - p50(b)) / p50(b)."""
    pa, pb = percentile(a, 50), percentile(b, 50)
    if pb == 0.0:
        raise ZeroDivisionError("median of the baseline series is zero")
    return (pa - pb) / pb


def validate_gain_table(g: GainTable) -> tuple[str, ...]:
    """Every broken gain rule (none when valid): gains must be finite and positive."""
    bad = []
    for name, arr in (("g_ul", g.g_ul), ("g_dl", g.g_dl), ("g_cross", g.g_cross)):
        if arr.size and not np.all(np.isfinite(arr)):
            bad.append(f"{name} has non-finite entries")
        if arr.size and not np.all(arr > 0):
            bad.append(f"{name} has non-positive entries")
    return tuple(bad)


def scenario_from_dict(doc: dict) -> GainTable:
    """Rebuild a dumped drop; raise ValueError on a gain that is not finite
    and positive, since the strategies disagree on such a drop."""
    positions = None
    if "positions" in doc:
        positions = DropPositions(
            bs=np.array(doc["positions"]["bs"]),
            ul=np.array(doc["positions"]["ul"]).reshape(-1, 2),
            dl=np.array(doc["positions"]["dl"]).reshape(-1, 2),
        )
    gains = GainTable(
        g_ul=np.array(doc["g_ul"], dtype=float),
        g_dl=np.array(doc["g_dl"], dtype=float),
        g_cross=np.array(doc["g_cross"], dtype=float).reshape(
            len(doc["g_ul"]), len(doc["g_dl"])),
        positions=positions,
    )
    bad = validate_gain_table(gains)
    if bad:
        raise ValueError(f"invalid gain table: {'; '.join(bad)}")
    return gains


def load_scenario(path) -> GainTable:
    """A scenarios/drop_<k>.json file, as written by a dump_scenarios run."""
    return scenario_from_dict(json.loads(Path(path).read_text()))


def dual_multipliers(c, mu: float) -> np.ndarray:
    """Exact solution of: minimize c . lam  s.t.  sum(lam) = mu, lam >= 0.

    All mass goes to the user with minimum spectral efficiency (first index
    on ties), so the optimum value is mu * min(c).
    """
    c = np.asarray(c, dtype=float)
    if c.size == 0:
        raise ValueError("dual_multipliers needs a nonempty vector")
    if np.any(c < 0):
        raise ValueError("spectral efficiencies must be nonnegative")
    check_mu(mu)
    lam = np.zeros(c.size)
    lam[int(np.argmin(c))] = mu
    return lam


def modules_after(script: str, *packages: str) -> list[str]:
    """The modules under the top-level names packages that are loaded once
    script has run in a fresh interpreter importing fdsched from this
    checkout, sorted."""
    import fdsched
    src = str(Path(fdsched.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script += (f"\nprint(json.dumps(sorted(m for m in sys.modules"
               f" if m.split('.')[0] in {packages!r})))\n")
    result = subprocess.run([sys.executable, "-c", "import json, sys\n" + script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])
