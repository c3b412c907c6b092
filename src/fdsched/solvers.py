"""Scheduling strategies: the exact corner optimum (P-OPT), the centralized
Hungarian heuristic (C-HUN), its interference-blind variant (C-NINT) and
the random/equal-power baseline (R-EPA).

All strategies share one signature: they map a chunk of drops (a
GainTable with a leading drop axis), its generators (or None; only R-EPA
reads them), the ScenarioParams and one list of objectives (weights with
the same drop axis, mu) to one Outcomes of the chunk, with metrics
computed on the true gains.  Weights, corner tables and pair benefits
are array passes over the whole chunk, and the Hungarian problems of every
drop go to one assign_with_solo call per strategy (or per P-OPT round),
which solves a large stack in lockstep.  A strategy's schedules for the chunk are two (D, K, I) arrays, the UL
partners (-1 for a user alone) and the pairs' corner_points indices;
_outcomes evaluates each drop's distinct schedules in one outcome_metrics
call for the whole chunk and scores every (drop, objective) in one
objective_value call, so a schedule that several objectives of a drop
chose is evaluated once, and the Outcomes index says which one each chose.
Schedules must fit the channel budget: a drop with I UL and J DL users and
P pairs occupies I + J - P channels, so at least I + J - F pairs are forced.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .assignment import assign_with_solo, min_pairs
from .model import GainTable, Outcomes, ScenarioParams, WeightMode, WeightVector
from .radio import (
    CornerTables,
    check_mu,
    corner_benefit,
    corner_points,
    corner_tables,
    make_weights,
    objective_value,
    outcome_metrics,
)

Objectives = Sequence[tuple[WeightVector, float]]
_BLOCK_ENTRIES = 1 << 16   # pair entries a threshold round gathers at once
Generators = Optional[Sequence[np.random.Generator]]


def _outcomes(gains: GainTable, params: ScenarioParams, objectives: Objectives,
              partner_ul: np.ndarray, corners: np.ndarray) -> Outcomes:
    """The Outcomes of every drop d and objective k of the chunk gains for the
    schedule that pairs UL user i with DL user partner_ul[d, k, i] (-1:
    alone) at the corner_points index corners[d, k, i] (0 for a user alone),
    every user not in a pair at max power; (D, 1, I) arrays give each drop
    one schedule for every objective.  Each drop's distinct schedules (their
    own partner and corner bytes) get their powers and go to one
    outcome_metrics call for the whole chunk, and one objective_value call
    scores every (drop, objective) row.  Outcomes.schedule indexes them."""
    drops, rows, num_ul = partner_ul.shape
    count = len(objectives)
    flat = [a.reshape(drops * rows, num_ul) for a in (partner_ul, corners)]
    schedules, index = {}, []   # (drop, partner and corner bytes) -> its distinct schedule
    for n, key in enumerate(zip(*(map(np.ndarray.tobytes, a) for a in flat))):
        index.append(schedules.setdefault((n // rows, key), len(schedules)))
    firsts = np.unique(index, return_index=True)[1]
    index = np.broadcast_to(np.reshape(index, (drops, rows)), (drops, count))
    partner, corner = (a[firsts] for a in flat)
    points = np.array(corner_points(params))
    paired = partner >= 0
    p_ul = np.where(paired, points[corner, 0], params.p_max_ul_w)
    p_dl = np.full((len(firsts), gains.num_dl), params.p_max_dl_w)
    r, i = np.nonzero(paired)
    p_dl[r, partner[r, i]] = points[corner[r, i], 1]
    se_ul, se_dl, sums, minima, jain = outcome_metrics(gains, params, firsts // rows,
                                                       partner, p_ul, p_dl)
    alpha_ul, alpha_dl = (np.stack(a, axis=1) for a in zip(*((w.alpha_ul, w.alpha_dl)
                                                             for w, _ in objectives)))
    weights = WeightVector(alpha_ul.reshape(drops * count, num_ul),
                           alpha_dl.reshape(drops * count, gains.num_dl))
    chosen = index.ravel()
    values = objective_value(se_ul[chosen], se_dl[chosen], minima[chosen], weights,
                             np.tile([mu for _, mu in objectives], drops))
    return Outcomes(index, values.reshape(drops, count), partner, p_ul, p_dl, se_ul, se_dl,
                    sums, minima, jain)


# ---------------------------------------------------------------------------
# Hungarian pipeline (shared by C-HUN, C-NINT and P-OPT)
# ---------------------------------------------------------------------------

def _best_corner_assignments(tables: CornerTables, objectives: Objectives,
                             num_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """The (D, K, I) UL partners and corners (corner_points indices, 0 for a
    user alone) of the exact pair-or-solo assignment over every pair's
    benefit at its best corner, for each of the D drops of the chunk's
    corner tables and each of the K objectives.  One corner_benefit pass
    scores all of them as (K, D, I, J) arrays, and the K * D problems,
    objective-major, go to one assign_with_solo call."""
    weights = WeightVector(np.array([w.alpha_ul for w, _ in objectives]),
                           np.array([w.alpha_dl for w, _ in objectives]))
    best, corners, solo_ul, solo_dl = corner_benefit(
        tables, weights, np.array([mu for _, mu in objectives])[:, None])
    drops, num_ul, num_dl = tables.paired_se_dl.shape
    del tables   # C-HUN's tables go before the assignment's own arrays are made
    count = len(objectives) * drops
    partners = assign_with_solo(best.reshape(count, num_ul, num_dl),
                                solo_ul.reshape(count, num_ul),
                                solo_dl.reshape(count, num_dl), num_channels)
    chosen = np.zeros(partners.shape, dtype=corners.dtype)
    n, i = np.nonzero(partners >= 0)
    chosen[n, i] = corners.reshape(count, num_ul, num_dl)[n, i, partners[n, i]]
    return tuple(a.reshape(len(objectives), drops, num_ul).swapaxes(0, 1)
                 for a in (partners, chosen))


def _hungarian_schedules(planning_gains: GainTable, gains: GainTable, params: ScenarioParams,
                         objectives: Objectives) -> Outcomes:
    """Corner tables -> every objective's benefit -> every assignment ->
    every outcome, each in one pass over the chunk.  Decisions are taken on
    planning_gains; outcomes are evaluated on gains."""
    return _outcomes(gains, params, objectives, *_best_corner_assignments(
        corner_tables(planning_gains, params), objectives, params.num_channels))


def solve_c_hun(gains: GainTable, rngs: Generators, params: ScenarioParams,
                objectives: Objectives) -> Outcomes:
    """Centralized Hungarian heuristic.

    Each candidate pair is scored at its best power corner, the assignment
    problem over those scores (with stand-alone options where the channel
    budget permits) is solved exactly, and the stored corner powers are
    applied.
    """
    return _hungarian_schedules(gains, gains, params, objectives)


def solve_c_nint(gains: GainTable, rngs: Generators, params: ScenarioParams,
                 objectives: Objectives) -> Outcomes:
    """C-HUN planned as if UE-to-UE interference did not exist.

    The benefit matrix is built with all cross gains zeroed, so the planner
    overestimates every DL SINR; the returned outcome is evaluated on the
    true gains, so planned and realized spectral efficiencies differ.
    """
    blind = GainTable(g_ul=gains.g_ul, g_dl=gains.g_dl,
                      g_cross=np.broadcast_to(0.0, gains.g_cross.shape))
    return _hungarian_schedules(blind, gains, params, objectives)


# ---------------------------------------------------------------------------
# The exact optimum
# ---------------------------------------------------------------------------

def _scored(tables: CornerTables, drops: np.ndarray, alpha_ul: np.ndarray,
            alpha_dl: np.ndarray, partner_ul: np.ndarray, corners: np.ndarray):
    """The (R,) weighted sums and minima of the corner-table SEs of R corner
    schedules: row r schedules drop drops[r] under weights alpha_ul[r] and
    alpha_dl[r], with UL partners partner_ul[r] at corners corners[r]."""
    se_ul, se_dl = tables.solo_se_ul[drops], tables.solo_se_dl[drops]
    r, i = np.nonzero(partner_ul >= 0)
    d, j, corner = drops[r], partner_ul[r, i], corners[r, i]
    # (Pmax, Pmax) reads the paired SEs; at (Pmax, 0) the UL user keeps its
    # solo SE and the DL user reads 0, at (0, Pmax) the other way round
    se_ul[r, i] = np.where(corner == 0, tables.paired_se_ul[d, i],
                           np.where(corner == 1, se_ul[r, i], 0.0))
    se_dl[r, j] = np.where(corner == 0, tables.paired_se_dl[d, i, j],
                           np.where(corner == 1, 0.0, se_dl[r, j]))
    # a batched matmul sums each row as the vector @ does; einsum would not
    sums = alpha_ul[:, None] @ se_ul[..., None] + alpha_dl[:, None] @ se_dl[..., None]
    return sums[:, 0, 0], np.concatenate([se_ul, se_dl], axis=1).min(axis=1)


def _next_thresholds(pair_min: np.ndarray, cap: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Per row of (R, I, J) pair minima: min(cap, the smallest one above
    low), the scan's next threshold, or NaN (none) once low >= cap."""
    above = np.where(pair_min > low[:, None, None], pair_min, np.inf)
    t = np.minimum(cap, above.reshape(len(low), -1).min(axis=1, initial=np.inf))
    return np.where(low < cap, t, np.nan)


def solve_p_opt(gains: GainTable, rngs: Generators, params: ScenarioParams,
                objectives: Objectives) -> Outcomes:
    """The exact optimum over every channel-feasible matching and per-pair
    power corner, unpaired users at max power, from a few pure-sum
    assignments (sum plus bottleneck: Minoux, Math. Programming 45, 1989;
    Punnen, Comput. Oper. Res. 21, 1994).

    If the optimum silences a user, its minimum SE is 0, so the max-sum
    schedule, C-HUN's at mu = 0, is optimal.  Otherwise every pair is at
    (Pmax, Pmax) and every solo user at Pmax, and the best sum with every
    SE >= t is one assignment with the pairs below t forbidden.  No SE
    exceeds its user's solo SE, nor, where the channel budget pairs every
    user of one side, that user's best pair minimum; so t rises over the
    pair minima up to the smallest of these caps, each step past the
    minimum SE of the schedule just found (every t up to it gives that
    schedule's sum).  A scan ends at an infeasible t, or once (1-mu) *
    (the last sum, at first the max-sum schedule's) + mu * cap cannot beat
    its incumbent, since no higher t has a larger sum; at mu = 0 no t is
    tried.

    A forbidden pair scores below -4 times the total absolute benefit, so
    any assignment of a set of rows that uses one totals less than every
    one that does not.  The Hungarian solver's inserted rows stay optimal,
    so it steps onto no forbidden entry while an allowed path remains, and
    the allowed entries' reduced costs are those of the rectangle without
    them: an assignment that pairs a forbidden pair means none is feasible.
    Schedules are ranked on corner-table SEs.  The whole chunk is scanned
    at once (_optimum), and its winners are evaluated together (_outcomes).
    """
    return _outcomes(gains, params, objectives,
                     *_optimum(corner_tables(gains, params), params, objectives))


def _optimum(tables: CornerTables, params: ScenarioParams,
             objectives: Objectives) -> tuple[np.ndarray, np.ndarray]:
    """The (D, K, I) UL partners and corners of P-OPT's schedules for the
    chunk's corner tables and the K objectives (solve_p_opt).

    A plan is a drop and one of the W distinct weight vectors (by object:
    solve makes one per weight mode), row d * W + w; the max-sum schedules
    of all plans are one stack.  Scan d * K + k, objective k's on drop d,
    keeps its incumbent and that one's value.  Every scan of a plan reads
    the same schedule at each threshold and so steps to the same next one,
    which the plan keeps.  Each round solves the threshold matrix of every
    plan with a live scan in one assign_with_solo stack, built in place
    from gathered SE and weight rows a block at a time; its assignment
    serves every mu of the plan."""
    distinct = []
    for w, _ in objectives:
        if not any(v is w for v in distinct):
            distinct.append(w)
    plan_of = [next(n for n, v in enumerate(distinct) if v is w) for w, _ in objectives]
    drops, num_ul, num_dl = tables.paired_se_dl.shape
    plans = drops * len(distinct)
    partner, corner = (a.reshape(plans, num_ul) for a in _best_corner_assignments(
        tables, [(w, 0.0) for w in distinct], params.num_channels))
    alpha_ul, alpha_dl = (np.stack(a, axis=1).reshape(plans, -1) for a in zip(
        *((w.alpha_ul, w.alpha_dl) for w in distinct)))
    plan_drop = np.repeat(np.arange(drops), len(distinct))
    sums, lows = _scored(tables, plan_drop, alpha_ul, alpha_dl, partner, corner)
    pair_min = np.minimum(tables.paired_se_ul[..., None], tables.paired_se_dl)
    cap = np.concatenate([tables.solo_se_ul, tables.solo_se_dl], axis=1).min(axis=1)
    for axis, users in ((2, num_ul), (1, num_dl)):
        if users and users == min_pairs(num_ul, num_dl, params.num_channels):   # each pairs
            cap = np.minimum(cap, pair_min.max(axis=axis).min(axis=1))
    t = _next_thresholds(pair_min, cap, np.full(drops, -np.inf))[plan_drop]
    plan = (np.arange(drops)[:, None] * len(distinct) + plan_of).ravel()
    best = plan.copy()
    mu, scan_cap = np.tile([m for _, m in objectives], drops), cap[plan_drop[plan]]

    def scalarized(m, total, low):   # the objective of a weighted sum and a minimum SE
        return (1.0 - m) * total + m * low

    value = scalarized(mu, sums[plan], lows[plan])
    live = scalarized(mu, sums[plan], scan_cap) > value
    partners, corners = [partner], [corner]
    step = max(_BLOCK_ENTRIES // max(num_ul * num_dl, 1), 1)
    while live.any():
        s = np.flatnonzero(live)
        rows, ask = np.unique(plan[s], return_inverse=True)
        d, ts = plan_drop[rows], t[rows]
        blocks = [slice(lo, lo + step) for lo in range(0, len(rows), step)]
        a_ul, a_dl = alpha_ul[rows], alpha_dl[rows]
        solo_ul, solo_dl = a_ul * tables.solo_se_ul[d], a_dl * tables.solo_se_dl[d]
        stack = np.empty((len(rows), num_ul, num_dl))
        for b in blocks:
            values = np.multiply(tables.paired_se_dl[d[b]], a_dl[b, None], out=stack[b])
            values += (a_ul[b] * tables.paired_se_ul[d[b]])[..., None]
            penalty = -1.0 - 4.0 * (abs(values).reshape(len(values), -1).sum(axis=1)
                                    + abs(solo_ul[b]).sum(axis=1) + abs(solo_dl[b]).sum(axis=1))
            np.copyto(values, penalty[:, None, None], where=pair_min[d[b]] < ts[b, None, None])
        found = assign_with_solo(stack, solo_ul, solo_dl, params.num_channels)
        del stack, values
        r, i = np.nonzero(found >= 0)
        feasible = np.ones(len(rows), dtype=bool)
        feasible[r[~(pair_min[d[r], i, found[r, i]] >= ts[r])]] = False
        partners.append(found)
        corners.append(np.zeros(found.shape, corner.dtype))
        found_sums, found_lows = _scored(tables, d, a_ul, a_dl, found, corners[-1])
        t[rows] = np.concatenate([_next_thresholds(pair_min[d[b]], cap[d[b]], found_lows[b])
                                  for b in blocks])
        live[s[~feasible[ask]]] = False
        s, ask = s[feasible[ask]], ask[feasible[ask]]
        found_value = scalarized(mu[s], found_sums[ask], found_lows[ask])
        better = found_value > value[s]
        best[s[better]] = sum(map(len, partners[:-1])) + ask[better]
        value[s[better]] = found_value[better]
        live[s] = ~np.isnan(t[plan[s]]) & (scalarized(mu[s], found_sums[ask], scan_cap[s])
                                           > value[s])
    return tuple(np.concatenate(a)[best].reshape(drops, len(objectives), num_ul)
                 for a in (partners, corners))


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------

def solve_r_epa(gains: GainTable, rngs: Generators, params: ScenarioParams,
                objectives: Objectives) -> Outcomes:
    """Uniformly random maximal matching with everyone at max power, drawn
    from each drop's generator.

    The schedule reads neither mu nor the weights, so it is drawn once per
    drop and shared by every objective (_outcomes evaluates it once).
    User k of the smaller side pairs user perm[k] of the larger one."""
    if rngs is None or any(rng is None for rng in rngs):
        raise ValueError("R-EPA needs a random generator")
    num_ul, num_dl = gains.num_ul, gains.num_dl
    partner_ul = np.full((len(rngs), num_ul), -1)
    for row, rng in zip(partner_ul, rngs):
        perm = rng.permutation(max(num_ul, num_dl))
        if num_ul <= num_dl:
            row[:] = perm[:num_ul]
        else:
            row[perm[:num_dl]] = np.arange(num_dl)
    return _outcomes(gains, params, objectives, partner_ul[:, None],
                     np.zeros((len(rngs), 1, num_ul), np.int8))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

Strategy = Callable[[GainTable, Generators, ScenarioParams, Objectives], Outcomes]

STRATEGIES: dict[str, Strategy] = {
    "P-OPT": solve_p_opt,
    "C-HUN": solve_c_hun,
    "C-NINT": solve_c_nint,
    "R-EPA": solve_r_epa,
}


def stacked_problems(name: str, objectives: Sequence[tuple[WeightMode, float]]) -> int:
    """How many assignment problems strategy name stacks per drop for
    objectives ((weight mode, mu) pairs): one per objective for C-HUN and
    C-NINT, one per weight mode for P-OPT (its max-sum stack; a threshold
    round holds at most as many) and none for R-EPA."""
    if name == "R-EPA":
        return 0
    if name == "P-OPT":
        return len({mode for mode, _ in objectives})
    return len(objectives)


def solve(name: str, gains: GainTable, rngs: Generators, params: ScenarioParams,
          objectives: Sequence[tuple[WeightMode, float]]) -> Outcomes:
    """Solve every drop of the chunk gains (its generators rngs, or None)
    with strategy name for each (weight mode, mu) of objectives: one
    Outcomes, its objective axis in the order of objectives.  Weights are made once per mode, for
    the whole chunk.  A mu outside [0, 1] anywhere in the list fails here,
    before any weights or schedule are built."""
    try:
        strategy = STRATEGIES[name]
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}") from None
    for _, mu in objectives:
        check_mu(mu)
    weights = {mode: make_weights(mode, gains) for mode in dict.fromkeys(m for m, _ in objectives)}
    return strategy(gains, rngs, params, [(weights[mode], mu) for mode, mu in objectives])
