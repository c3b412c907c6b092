"""Scheduling strategies: the exact corner optimum (P-OPT), the centralized
Hungarian heuristic (C-HUN), its interference-blind variant (C-NINT) and
the random/equal-power baseline (R-EPA).

All strategies share one signature: they map a chunk of drops (a
GainTable with a leading drop axis), its generators (or None; only R-EPA
reads them), the ScenarioParams and one list of objectives (weights with
the same drop axis, mu) to one list of ScheduleOutcomes per drop, one per
objective, in order, with metrics computed on the true gains.  Weights,
corner tables and pair benefits are array passes over the whole chunk,
and every drop's Hungarian problems of one strategy go to one
assign_with_solo call, which solves a large enough stack in lockstep.  A
strategy's schedules for the chunk are two (D, K, I) arrays, the UL
partners (-1 for a user alone) and the pairs' corner_points indices;
_outcomes evaluates each drop's distinct schedules in one outcome_metrics
call for the whole chunk and scores every (drop, objective) in one
objective_value call, so a schedule that several objectives of a drop
chose is evaluated once.
Schedules must fit the channel budget: a drop with I UL and J DL users and
P pairs occupies I + J - P channels, so at least I + J - F pairs are forced.
"""

from __future__ import annotations

import bisect
from typing import Callable, Optional, Sequence

import numpy as np

from .assignment import assign_with_solo, min_pairs
from .model import GainTable, ScenarioParams, ScheduleOutcome, WeightMode, WeightVector
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
Generators = Optional[Sequence[np.random.Generator]]


def _outcomes(gains: GainTable, params: ScenarioParams, objectives: Objectives,
              partner_ul: np.ndarray, corners: np.ndarray) -> list[list[ScheduleOutcome]]:
    """The outcome of every drop d and objective k of the chunk gains for the
    schedule that pairs UL user i with DL user partner_ul[d, k, i] (-1:
    alone) at the corner_points index corners[d, k, i], every user not in a
    pair at max power.  Each drop's distinct schedules (their own partner
    and power bytes) go to one outcome_metrics call for the whole chunk,
    and one objective_value call scores every (drop, objective) row; the
    outcomes of one schedule share its arrays, so a repeat is known by its
    SE arrays."""
    drops, count, num_ul = partner_ul.shape
    points = np.array(corner_points(params))
    paired = partner_ul >= 0
    p_ul = np.where(paired, points[corners, 0], params.p_max_ul_w)
    p_dl = np.full((drops, count, gains.num_dl), params.p_max_dl_w)
    d, k, i = np.nonzero(paired)
    p_dl[d, k, partner_ul[d, k, i]] = points[corners[d, k, i], 1]
    rows = [a.reshape(drops * count, a.shape[-1]) for a in (partner_ul, p_ul, p_dl)]
    schedules, index = {}, []   # (drop, partner and power bytes) -> its distinct schedule
    for n, key in enumerate(zip(*(map(np.ndarray.tobytes, a) for a in rows))):
        index.append(schedules.setdefault((n // count, key), len(schedules)))
    firsts = np.unique(index, return_index=True)[1]
    se_ul, se_dl, sums, minima, jain = outcome_metrics(gains, params, firsts // count,
                                                       *(a[firsts] for a in rows))
    alpha_ul, alpha_dl = (np.stack(a, axis=1) for a in zip(*((w.alpha_ul, w.alpha_dl)
                                                             for w, _ in objectives)))
    weights = WeightVector(alpha_ul.reshape(drops * count, num_ul),
                           alpha_dl.reshape(drops * count, gains.num_dl))
    values = objective_value(se_ul[index], se_dl[index], minima[index], weights,
                             np.tile([mu for _, mu in objectives], drops))
    shared = list(zip(*(a[firsts] for a in rows), se_ul, se_dl))   # one row object each
    metrics = list(zip(sums.tolist(), minima.tolist(), jain.tolist()))
    outcomes = [ScheduleOutcome(*shared[s], value, *metrics[s])
                for s, value in zip(index, values.tolist())]
    return [outcomes[n:n + count] for n in range(0, drops * count, count)]


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
    partners, _ = assign_with_solo(best.reshape(count, num_ul, num_dl),
                                   solo_ul.reshape(count, num_ul),
                                   solo_dl.reshape(count, num_dl), num_channels)
    chosen = np.zeros(partners.shape, dtype=corners.dtype)
    n, i = np.nonzero(partners >= 0)
    chosen[n, i] = corners.reshape(count, num_ul, num_dl)[n, i, partners[n, i]]
    return tuple(a.reshape(len(objectives), drops, num_ul).swapaxes(0, 1)
                 for a in (partners, chosen))


def _hungarian_schedules(planning_gains: GainTable, gains: GainTable, params: ScenarioParams,
                         objectives: Objectives) -> list[list[ScheduleOutcome]]:
    """Corner tables -> every objective's benefit -> every assignment ->
    every outcome, each in one pass over the chunk.  Decisions are taken on
    planning_gains; outcomes are evaluated on gains."""
    return _outcomes(gains, params, objectives, *_best_corner_assignments(
        corner_tables(planning_gains, params), objectives, params.num_channels))


def solve_c_hun(gains: GainTable, rngs: Generators, params: ScenarioParams,
                objectives: Objectives) -> list[list[ScheduleOutcome]]:
    """Centralized Hungarian heuristic.

    Each candidate pair is scored at its best power corner, the assignment
    problem over those scores (with stand-alone options where the channel
    budget permits) is solved exactly, and the stored corner powers are
    applied.
    """
    return _hungarian_schedules(gains, gains, params, objectives)


def solve_c_nint(gains: GainTable, rngs: Generators, params: ScenarioParams,
                 objectives: Objectives) -> list[list[ScheduleOutcome]]:
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

def _scored(tables: CornerTables, weights: WeightVector, partner_ul: np.ndarray,
            corners: np.ndarray):
    """(partner_ul, corners, weighted sum, minimum) of a corner schedule's
    corner-table SEs."""
    se_ul, se_dl = tables.solo_se_ul.copy(), tables.solo_se_dl.copy()
    i = np.flatnonzero(partner_ul >= 0)
    j, corner = partner_ul[i], corners[i]
    # (Pmax, Pmax) reads the paired SEs; at (Pmax, 0) the UL user keeps its
    # solo SE and the DL user reads 0, at (0, Pmax) the other way round
    se_ul[i] = np.where(corner == 0, tables.paired_se_ul[i], np.where(corner == 1, se_ul[i], 0.0))
    se_dl[j] = np.where(corner == 0, tables.paired_se_dl[i, j], np.where(corner == 1, 0.0, se_dl[j]))
    return (partner_ul, corners, float(weights.alpha_ul @ se_ul + weights.alpha_dl @ se_dl),
            float(np.concatenate([se_ul, se_dl]).min()))


def solve_p_opt(gains: GainTable, rngs: Generators, params: ScenarioParams,
                objectives: Objectives) -> list[list[ScheduleOutcome]]:
    """The exact optimum over every channel-feasible matching and per-pair
    power corner, unpaired users at max power, from a few pure-sum
    assignments (sum plus bottleneck: Minoux, Math. Programming 45, 1989;
    Punnen, Comput. Oper. Res. 21, 1994).

    If the optimum silences a user, its minimum SE is 0, so the max-sum
    schedule, C-HUN's at mu = 0, is optimal.  Otherwise every pair is at
    (Pmax, Pmax) and every solo user at Pmax, and the best sum with every
    SE >= t is one assign_with_solo call with the pairs below t forbidden.
    No SE exceeds its user's solo SE, nor, where the channel budget pairs
    every user of one side, that user's best pair minimum; so t rises over
    the pair minima up to the smallest of these caps, each step past the
    minimum SE of the schedule just found (every t up to it gives that
    schedule's sum).  The scan ends at an infeasible t, or once (1-mu) *
    (the last sum, at first the max-sum schedule's) + mu * cap cannot beat
    the incumbent, since no higher t has a larger sum; at mu = 0 no t is
    tried.

    A forbidden pair scores below -4 times the total absolute benefit, so
    any assignment of a set of rows that uses one totals less than every
    one that does not.  The Hungarian solver's inserted rows stay optimal,
    so it steps onto no forbidden entry while an allowed path remains, and
    the allowed entries' reduced costs are those of the rectangle without
    them: an assignment that pairs a forbidden pair means none is feasible.
    Schedules are ranked on corner-table SEs; a threshold's assignment
    reads no mu and serves every objective of its weights.  The chunk's
    corner tables are made at once, and so is the max-sum assignment of
    every drop and distinct weight vector (_distinct); each drop's
    threshold scan runs on its own (_optimum), and the winners of the
    whole chunk are evaluated together (_outcomes).
    """
    tables = corner_tables(gains, params)
    distinct, plan_of = _distinct(objectives)
    max_sum = _best_corner_assignments(tables, [(w, 0.0) for w in distinct],
                                       params.num_channels)
    mus = [mu for _, mu in objectives]
    plans = [_optimum(CornerTables(*(a[d] for a in vars(tables).values())), params,
                      [WeightVector(w.alpha_ul[d], w.alpha_dl[d]) for w in distinct],
                      [a[d] for a in max_sum], plan_of, mus)
             for d in range(len(tables.paired_se_dl))]
    return _outcomes(gains, params, objectives,
                     np.array([[partner for partner, _ in drop] for drop in plans]),
                     np.array([[corners for _, corners in drop] for drop in plans]))


def _distinct(objectives: Objectives) -> tuple[list[WeightVector], list[int]]:
    """The objectives' distinct weight vectors, in order of first use, and
    the index among them of each objective's.  Objectives share a weight
    vector when they share its object, as solve's objectives of one weight
    mode do."""
    index = {}
    plan_of = [index.setdefault(id(w), len(index)) for w, _ in objectives]
    return list({id(w): w for w, _ in objectives}.values()), plan_of


def _optimum(tables: CornerTables, params: ScenarioParams, weights: list[WeightVector],
             max_sum: list[np.ndarray], plan_of: list[int], mus: list[float]) -> list[tuple]:
    """One drop's P-OPT schedules (solve_p_opt), a (UL partners, corners)
    pair per objective: objective n's threshold scan runs on the distinct
    weight vector weights[plan_of[n]] from its max-sum plan, row
    plan_of[n] of max_sum's UL partners and corners."""
    se_ul, se_dl = tables.paired_se_ul, tables.paired_se_dl
    num_ul, num_dl = se_dl.shape
    pair_min = np.minimum(se_ul[:, None], se_dl)
    cap = float(np.concatenate([tables.solo_se_ul, tables.solo_se_dl]).min())
    forced = min_pairs(num_ul, num_dl, params.num_channels)
    for axis, users in ((1, num_ul), (0, num_dl)):
        if users and forced == users:   # each of these users pairs
            cap = min(cap, float(pair_min.max(axis=axis).min()))
    thresholds = sorted({*pair_min[pair_min <= cap].tolist(), cap})
    schedules = [None] * len(mus)
    for plan, w in enumerate(weights):
        values = (w.alpha_ul * se_ul)[:, None] + w.alpha_dl * se_dl
        solo_ul = w.alpha_ul * tables.solo_se_ul
        solo_dl = w.alpha_dl * tables.solo_se_dl
        penalty = -1.0 - 4.0 * (abs(values).sum() + abs(solo_ul).sum() + abs(solo_dl).sum())
        first = _scored(tables, w, *(a[plan] for a in max_sum))
        scanned = {}   # threshold -> its scored schedule, or None if none is feasible

        def best_at(t):
            if t not in scanned:
                partner, _ = assign_with_solo(np.where(pair_min < t, penalty, values),
                                              solo_ul, solo_dl, params.num_channels)
                i = np.flatnonzero(partner >= 0)
                scanned[t] = (_scored(tables, w, partner, np.zeros(num_ul, np.int8))
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
    return schedules


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------

def solve_r_epa(gains: GainTable, rngs: Generators, params: ScenarioParams,
                objectives: Objectives) -> list[list[ScheduleOutcome]]:
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
    shape = (len(rngs), len(objectives), num_ul)
    return _outcomes(gains, params, objectives,
                     np.broadcast_to(partner_ul[:, None], shape), np.zeros(shape, np.int8))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

Strategy = Callable[[GainTable, Generators, ScenarioParams, Objectives],
                    list[list[ScheduleOutcome]]]

STRATEGIES: dict[str, Strategy] = {
    "P-OPT": solve_p_opt,
    "C-HUN": solve_c_hun,
    "C-NINT": solve_c_nint,
    "R-EPA": solve_r_epa,
}


def stacked_problems(name: str, objectives: Sequence[tuple[WeightMode, float]]) -> int:
    """How many assignment problems strategy name stacks per drop for
    objectives ((weight mode, mu) pairs): one per objective for C-HUN and
    C-NINT, one per weight mode for P-OPT's max-sum schedules (its
    threshold scans run per drop) and none for R-EPA."""
    if name == "R-EPA":
        return 0
    if name == "P-OPT":
        return len({mode for mode, _ in objectives})
    return len(objectives)


def solve(name: str, gains: GainTable, rngs: Generators, params: ScenarioParams,
          objectives: Sequence[tuple[WeightMode, float]]) -> list[list[ScheduleOutcome]]:
    """Solve every drop of the chunk gains (its generators rngs, or None)
    with strategy name for each (weight mode, mu) of objectives: per drop,
    one outcome per pair, in order.  Weights are made once per mode, for
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
