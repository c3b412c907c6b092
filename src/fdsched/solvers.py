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
schedule that several objectives of a drop chose is evaluated once.
Schedules must fit the channel budget: a drop with I UL and J DL users and
P pairs occupies I + J - P channels, so at least I + J - F pairs are forced.
"""

from __future__ import annotations

import bisect
from typing import Callable, Optional, Sequence

import numpy as np

from .assignment import assign_with_solo, min_pairs
from .model import (
    GainTable,
    Pairing,
    PowerAllocation,
    ScenarioParams,
    ScheduleOutcome,
    WeightMode,
    WeightVector,
)
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


def _drop_objectives(objectives: Objectives, d: int) -> Objectives:
    """Drop d's (weights, mu) list: views of its weight rows, one per
    distinct weight vector, so objectives that share weights still do."""
    rows = {id(w): WeightVector(w.alpha_ul[d], w.alpha_dl[d]) for w, _ in objectives}
    return [(rows[id(w)], mu) for w, mu in objectives]


def _corner_schedule(pairing: Pairing, corners: Sequence[int],
                     params: ScenarioParams) -> tuple[Pairing, PowerAllocation]:
    """The pairing, with its pairs() at corners (corner_points indices), all else at max."""
    points = corner_points(params)
    p_ul = [params.p_max_ul_w] * len(pairing.partner_of_ul)
    p_dl = [params.p_max_dl_w] * len(pairing.partner_of_dl)
    for (i, j), corner in zip(pairing.pairs(), corners):
        p_ul[i], p_dl[j] = points[corner]
    return pairing, PowerAllocation(p_ul, p_dl)


def _outcomes(schedules: Sequence[tuple[Pairing, PowerAllocation]], gains: GainTable,
              params: ScenarioParams, objectives: Objectives) -> list[ScheduleOutcome]:
    """The outcome of schedules[k] under objectives[k], for every k.  Each
    distinct schedule (the same pairing and power bytes) is evaluated once;
    a repeat keeps its own pairing and powers, shares the SE arrays and
    metrics and only rescores the objective."""
    outcomes, evaluated = [], {}   # (UL partners, power bytes) -> its first outcome
    for (pairing, powers), (weights, mu) in zip(schedules, objectives):
        key = pairing.partner_of_ul, powers.p_ul.tobytes(), powers.p_dl.tobytes()
        first = evaluated.get(key)
        if first is None:
            first = evaluated[key] = outcome_metrics(pairing, powers, gains, params, weights, mu)
            outcomes.append(first)
        else:
            outcomes.append(first.rescored(
                pairing, powers,
                objective_value(first.se_ul, first.se_dl, first.min_se, weights, mu)))
    return outcomes


# ---------------------------------------------------------------------------
# Hungarian pipeline (shared by C-HUN, C-NINT and P-OPT)
# ---------------------------------------------------------------------------

def _best_corner_assignments(tables: CornerTables, objectives: Objectives,
                             num_channels: int) -> list[list[tuple[Pairing, list[int]]]]:
    """Per drop of the chunk's corner tables, per objective: the exact
    pair-or-solo assignment over every pair's benefit at its best corner,
    and the chosen pairs' corners (corner_points indices).  One corner_benefit
    pass scores all of them as (K, D, I, J) arrays, and the K * D problems,
    objective-major, go to one assign_with_solo call."""
    weights = WeightVector(np.array([w.alpha_ul for w, _ in objectives]),
                           np.array([w.alpha_dl for w, _ in objectives]))
    best, corners, solo_ul, solo_dl = corner_benefit(
        tables, weights, np.array([mu for _, mu in objectives])[:, None])
    drops, num_ul, num_dl = tables.paired_se_dl.shape
    del tables   # C-HUN's tables go before the assignment's own arrays are made
    count = len(objectives) * drops
    plans = []
    for (pairing, _), corner in zip(
            assign_with_solo(best.reshape(count, num_ul, num_dl), solo_ul.reshape(count, num_ul),
                             solo_dl.reshape(count, num_dl), num_channels),
            corners.reshape(count, num_ul, num_dl)):
        pairs = pairing.pairs()
        plans.append((pairing, corner[[i for i, _ in pairs], [j for _, j in pairs]].tolist()))
    return [plans[d::drops] for d in range(drops)]


def _hungarian_schedules(planning_gains: GainTable, gains: GainTable, params: ScenarioParams,
                         objectives: Objectives) -> list[list[ScheduleOutcome]]:
    """Corner tables -> every objective's benefit -> every assignment, each
    in one pass over the chunk; then per drop and objective: per-pair corner
    powers -> outcome.  Decisions are taken on planning_gains; outcomes are
    evaluated on gains."""
    plans = _best_corner_assignments(corner_tables(planning_gains, params), objectives,
                                     params.num_channels)
    return [_outcomes([_corner_schedule(pairing, corners, params)
                       for pairing, corners in drop_plans], gains.drop(d), params,
                      _drop_objectives(objectives, d))
            for d, drop_plans in enumerate(plans)]


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

def _scored(tables: CornerTables, weights: WeightVector, pairing: Pairing, corners):
    """(pairing, corners, weighted sum, minimum) of a corner schedule's
    corner-table SEs."""
    se_ul, se_dl = tables.solo_se_ul.copy(), tables.solo_se_dl.copy()
    for (i, j), corner in zip(pairing.pairs(), corners):
        if corner == 0:
            se_ul[i], se_dl[j] = tables.paired_se_ul[i], tables.paired_se_dl[i, j]
        elif corner == 1:   # (Pmax, 0): the UL user keeps its solo SE
            se_dl[j] = 0.0
        else:               # (0, Pmax)
            se_ul[i] = 0.0
    return (pairing, corners, float(weights.alpha_ul @ se_ul + weights.alpha_dl @ se_dl),
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
    threshold scan runs on its own (_optimum).
    """
    tables = corner_tables(gains, params)
    max_sum = _best_corner_assignments(
        tables, [(w, 0.0) for w in _distinct(objectives)], params.num_channels)
    return [_optimum(gains.drop(d), CornerTables(*(a[d] for a in vars(tables).values())),
                     params, _drop_objectives(objectives, d), plans)
            for d, plans in enumerate(max_sum)]


def _distinct(objectives: Objectives) -> list[WeightVector]:
    """The objectives' distinct weight vectors, in order of first use.
    Objectives share a weight vector when they share its object, as solve's
    objectives of one weight mode do (and _drop_objectives keeps)."""
    return list({id(w): w for w, _ in objectives}.values())


def _optimum(gains: GainTable, tables: CornerTables, params: ScenarioParams,
             objectives: Objectives, max_sum: list) -> list[ScheduleOutcome]:
    """One drop's P-OPT outcomes (solve_p_opt): the threshold scan from the
    max-sum plan of each distinct weight vector (_distinct)."""
    se_ul, se_dl = tables.paired_se_ul, tables.paired_se_dl
    pair_min = np.minimum(se_ul[:, None], se_dl)
    cap = float(np.concatenate([tables.solo_se_ul, tables.solo_se_dl]).min())
    forced = min_pairs(gains.num_ul, gains.num_dl, params.num_channels)
    for axis, users in ((1, gains.num_ul), (0, gains.num_dl)):
        if users and forced == users:   # each of these users pairs
            cap = min(cap, float(pair_min.max(axis=axis).min()))
    thresholds = sorted({*pair_min[pair_min <= cap].tolist(), cap})
    schedules = [None] * len(objectives)
    for weights, plan in zip(_distinct(objectives), max_sum):
        values = (weights.alpha_ul * se_ul)[:, None] + weights.alpha_dl * se_dl
        solo_ul = weights.alpha_ul * tables.solo_se_ul
        solo_dl = weights.alpha_dl * tables.solo_se_dl
        penalty = -1.0 - 4.0 * (abs(values).sum() + abs(solo_ul).sum() + abs(solo_dl).sum())
        first = _scored(tables, weights, *plan)
        scanned = {}   # threshold -> its scored schedule, or None if none is feasible

        def best_at(t):
            if t not in scanned:
                pairing, _ = assign_with_solo(np.where(pair_min < t, penalty, values),
                                              solo_ul, solo_dl, params.num_channels)
                scanned[t] = (_scored(tables, weights, pairing, [0] * pairing.num_pairs)
                              if all(pair_min[i, j] >= t for i, j in pairing.pairs()) else None)
            return scanned[t]

        for n, (own, mu) in enumerate(objectives):
            if own is not weights:
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
            schedules[n] = best
    winners = {id(b): b for b in schedules}   # each winner's schedule is built once
    made = {k: _corner_schedule(b[0], b[1], params) for k, b in winners.items()}
    return _outcomes([made[id(b)] for b in schedules], gains, params, objectives)


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------

def solve_r_epa(gains: GainTable, rngs: Generators, params: ScenarioParams,
                objectives: Objectives) -> list[list[ScheduleOutcome]]:
    """Uniformly random maximal matching with everyone at max power, drawn
    from each drop's generator.

    The schedule reads neither mu nor the weights, so it is drawn once per
    drop and every objective after the first is only rescored (_outcomes).
    User k of the smaller side pairs user perm[k] of the larger one."""
    if rngs is None or any(rng is None for rng in rngs):
        raise ValueError("R-EPA needs a random generator")
    num_ul, num_dl = gains.num_ul, gains.num_dl
    powers = PowerAllocation(np.full(num_ul, params.p_max_ul_w),
                             np.full(num_dl, params.p_max_dl_w))
    outcomes = []
    for d, rng in enumerate(rngs):
        perm = rng.permutation(max(num_ul, num_dl)).tolist()
        pairing = Pairing.from_pairs([(k, perm[k]) if num_ul <= num_dl else (perm[k], k)
                                      for k in range(min(num_ul, num_dl))], num_ul, num_dl)
        outcomes.append(_outcomes([(pairing, powers)] * len(objectives), gains.drop(d), params,
                                  _drop_objectives(objectives, d)))
    return outcomes


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
