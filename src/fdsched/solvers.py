"""Scheduling strategies: exhaustive search (P-OPT), the centralized
Hungarian heuristic (C-HUN), its interference-blind variant (C-NINT) and
the random/equal-power baseline (R-EPA).

All strategies share one signature: they map one drop (GainTable,
ScenarioParams), a list of objectives (per-user weights, mu) and a random
generator to one ScheduleOutcome per objective, in order, with metrics
computed on the true gains.  The objectives are one array axis of the
scoring, and a schedule that several objectives chose is evaluated once.
Schedules must fit the channel budget: a drop with I UL and J DL users and
P pairs occupies I + J - P channels, so at least I + J - F pairs are
forced.
"""

from __future__ import annotations

import functools
import itertools
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
    check_mu,
    corner_benefit,
    corner_points,
    corner_tables,
    make_weights,
    objective_value,
    outcome_metrics,
)

_P_OPT_MAX_USERS = 10


Objectives = Sequence[tuple[WeightVector, float]]


def _stacked(objectives: Objectives, gains: GainTable) -> tuple[WeightVector, np.ndarray]:
    """The objectives' weights as (K, I) and (K, J) rows, and mu as (K,)."""
    k = len(objectives)
    return (WeightVector(np.array([w.alpha_ul for w, _ in objectives]).reshape(k, gains.num_ul),
                         np.array([w.alpha_dl for w, _ in objectives]).reshape(k, gains.num_dl)),
            np.array([mu for _, mu in objectives]))


def _corner_schedule(pairing: Pairing, corners: Sequence[int],
                     params: ScenarioParams) -> tuple[Pairing, PowerAllocation]:
    """The pairing, with its pairs() at corners (corner_points indices), all else at max."""
    points = corner_points(params)
    p_ul = [params.p_max_ul_w] * len(pairing.partner_of_ul)
    p_dl = [params.p_max_dl_w] * len(pairing.partner_of_dl)
    for (i, j), corner in zip(pairing.pairs(), corners):
        p_ul[i], p_dl[j] = points[corner]
    return pairing, PowerAllocation(p_ul, p_dl)


def _same_sinrs(a: Pairing, b: Pairing, powers: PowerAllocation) -> bool:
    """Whether pairings a and b give every user the same SINR under powers:
    the same pairs once those with a silent user are dropped.  A partner at
    zero power adds p_int * g_int = 0.0 to the noise, as no partner does,
    and a user at zero power has SINR 0.0 whatever its interference."""
    if a.partner_of_ul == b.partner_of_ul:
        return True
    p_ul, p_dl = powers.p_ul.tolist(), powers.p_dl.tolist()

    def active(pairing):
        return [j if j is not None and p != 0.0 and p_dl[j] != 0.0 else None
                for j, p in zip(pairing.partner_of_ul, p_ul)]

    return active(a) == active(b)


def _outcomes(schedules: Sequence[tuple[Pairing, PowerAllocation]], gains: GainTable,
              params: ScenarioParams, objectives: Objectives) -> list[ScheduleOutcome]:
    """The outcome of schedules[k] under objectives[k], for every k.  Each
    distinct set of SINRs (the same power bytes and _same_sinrs) is
    evaluated once; a repeat keeps its own pairing and powers, shares the SE
    arrays and metrics and only rescores the objective."""
    outcomes, evaluated = [], {}   # power bytes -> the outcomes evaluated with them
    for (pairing, powers), (weights, mu) in zip(schedules, objectives):
        same_powers = evaluated.setdefault((powers.p_ul.tobytes(), powers.p_dl.tobytes()), [])
        first = next((o for o in same_powers if _same_sinrs(o.pairing, pairing, powers)), None)
        if first is None:
            first = outcome_metrics(pairing, powers, gains, params, weights, mu)
            same_powers.append(first)
            outcomes.append(first)
        else:
            outcomes.append(ScheduleOutcome(
                pairing, powers, first.se_ul, first.se_dl,
                objective_value(first.se_ul, first.se_dl, first.min_se, weights, mu),
                first.sum_se, first.min_se, first.jain))
    return outcomes


# ---------------------------------------------------------------------------
# Hungarian pipeline (shared by C-HUN and C-NINT)
# ---------------------------------------------------------------------------

def _hungarian_schedules(planning_gains: GainTable, gains: GainTable,
                         params: ScenarioParams, objectives: Objectives) -> list[ScheduleOutcome]:
    """Corner tables -> every objective's benefit in one pass -> per
    objective: assignment -> per-pair corner powers -> outcome.  Decisions
    are taken on planning_gains; outcomes are evaluated on gains."""
    weights, mus = _stacked(objectives, gains)
    scores = corner_benefit(corner_tables(planning_gains, params), weights, mus)
    b = scores.benefit   # its max over corners; b.max(axis=3) loops once per cell
    best_benefit = np.maximum(np.maximum(b[..., 0], b[..., 1]), b[..., 2])
    schedules = []
    for k in range(len(objectives)):
        pairing, _ = assign_with_solo(best_benefit[k], scores.solo_contrib_ul[k],
                                      scores.solo_contrib_dl[k], params.num_channels)
        schedules.append(_corner_schedule(
            pairing, [scores.best_corner[k, i, j] for i, j in pairing.pairs()], params))
    return _outcomes(schedules, gains, params, objectives)


def solve_c_hun(gains: GainTable, params: ScenarioParams, objectives: Objectives,
                rng: np.random.Generator | None = None) -> list[ScheduleOutcome]:
    """Centralized Hungarian heuristic.

    Each candidate pair is scored at its best power corner, the assignment
    problem over those scores (with stand-alone options where the channel
    budget permits) is solved exactly, and the stored corner powers are
    applied.
    """
    return _hungarian_schedules(gains, gains, params, objectives)


def solve_c_nint(gains: GainTable, params: ScenarioParams, objectives: Objectives,
                 rng: np.random.Generator | None = None) -> list[ScheduleOutcome]:
    """C-HUN planned as if UE-to-UE interference did not exist.

    The benefit matrix is built with all cross gains zeroed, so the planner
    overestimates every DL SINR; the returned outcome is evaluated on the
    true gains, so planned and realized spectral efficiencies differ.
    """
    blind = GainTable(g_ul=gains.g_ul, g_dl=gains.g_dl, g_cross=np.zeros_like(gains.g_cross),
                      positions=gains.positions)
    return _hungarian_schedules(blind, gains, params, objectives)


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

def _matching_grid(pair_values, ul_idx, perms, base, combine):
    """combine folded over base and the pair values of every matching and
    candidate combo, in pair order.  perms[p, a] is the DL partner of UL
    user ul_idx[a] in matching p; cell [p, c_1, ..., c_n] of the result has
    pair a of matching p at candidate c_a.  Leading (objective) axes of
    pair_values and base lead the result."""
    n_perm, n_pairs = perms.shape
    values = pair_values[..., ul_idx, perms, :]   # (..., n_perm, n_pairs, n_cand)
    lead = values.shape[:-3]
    grid = np.reshape(base, lead + (1,) * (n_pairs + 1))
    for axis in range(n_pairs):
        view = [n_perm] + [1] * n_pairs
        view[axis + 1] = values.shape[-1]
        grid = combine(grid, values[..., axis, :].reshape(lead + tuple(view)))
    return grid


def _best_matching(grid_ws, grid_min, mus, n_perm):
    """Per objective k, the value and flat (matching, combo) index of the
    first maximal cell of grid_ws[k] + mus[k] * grid_min, the _matching_grid
    sums and minima of n_perm matchings: the first matching, then the first
    combo, as a strict-improvement scan over matchings would pick."""
    grid_ws += mus.reshape((-1,) + (1,) * grid_min.ndim) * grid_min
    grid_obj = grid_ws.reshape(len(mus), grid_min.size)
    flat_idx = grid_obj.argmax(axis=1)
    values = grid_obj[np.arange(len(mus)), flat_idx]
    for k in np.flatnonzero(np.isnan(values)):
        # argmax stops at the first NaN; a matching with a NaN cell never
        # beats the incumbent, so rule those matchings out.
        cells = grid_obj[k].reshape(n_perm, -1)
        cells[np.isnan(cells).any(axis=1)] = -np.inf
        flat_idx[k] = cells.argmax()
        values[k] = cells.flat[flat_idx[k]]
    return values, flat_idx


@functools.lru_cache(maxsize=None)
def _p_opt_plans(num_ul: int, num_dl: int, min_pairs: int):
    """P-OPT's set-up of one shape: per UL subset its users and solo users,
    and per DL subset its solo users and matchings as DL partner arrays.
    Every drop of the shape shares them, so the arrays are read-only; the
    10-user guard bounds the cache."""
    def index(values):
        a = np.array(values, dtype=np.intp)
        a.setflags(write=False)
        return a

    plans = []
    for n_pairs in range(min_pairs, min(num_ul, num_dl) + 1):
        # Permutations of subset positions in itertools order, mapped
        # through each DL subset.
        orders = index(list(itertools.permutations(range(n_pairs))))
        dl_plans = tuple((index([j for j in range(num_dl) if j not in dl]),
                          index(index(dl)[orders]))
                         for dl in itertools.combinations(range(num_dl), n_pairs))
        plans += [(ul, index([i for i in range(num_ul) if i not in ul]), index(ul), dl_plans)
                  for ul in itertools.combinations(range(num_ul), n_pairs)]
    return tuple(plans)


def solve_p_opt(gains: GainTable, params: ScenarioParams, objectives: Objectives,
                rng: np.random.Generator | None = None) -> list[ScheduleOutcome]:
    """Exhaustive search over all channel-feasible matchings and powers.

    Every matching with at least I + J - F pairs is enumerated (at full
    load, I = J = F, that means perfect matchings only); for each, every
    per-pair power corner combination is scored against the true
    objective with the global minimum term.  Unpaired users transmit at max
    power, which is optimal for them in a single cell.  The matchings of
    one (UL subset, DL subset) pair are scored together, for all K
    objectives at once, as one array of at most K * 5! * 3^5 cells.
    Guarded to I + J <= 10 users.
    """
    num_ul, num_dl = gains.num_ul, gains.num_dl
    if num_ul + num_dl > _P_OPT_MAX_USERS:
        raise ValueError(f"P-OPT is limited to {_P_OPT_MAX_USERS} users, "
                         f"got {num_ul + num_dl}")
    plans = _p_opt_plans(num_ul, num_dl, min_pairs(num_ul, num_dl, params.num_channels))
    tables = corner_tables(gains, params)
    pair_min = np.minimum(tables.se_ul, tables.se_dl)
    # Weighted-sum part of every (objective, i, j, corner) and solo user.
    weights, mus = _stacked(objectives, gains)
    keep = (1.0 - mus)[:, None]
    pair_ws = keep[:, :, None, None] * (weights.alpha_ul[:, :, None, None] * tables.se_ul
                                        + weights.alpha_dl[:, None, :, None] * tables.se_dl)
    solo_ws_ul, solo_ws_dl = (keep * weights.alpha_ul * tables.solo_se_ul,
                              keep * weights.alpha_dl * tables.solo_se_dl)
    best_value = np.full(len(objectives), -np.inf)
    best = [((), ())] * len(objectives)   # per objective: pairs, corner combo
    for ul_subset, ul_solo, ul_idx, dl_plans in plans:
        ws_ul_solo = solo_ws_ul[:, ul_solo].sum(axis=1)
        for dl_solo, perms in dl_plans:
            solo_se = np.concatenate([tables.solo_se_ul[ul_solo], tables.solo_se_dl[dl_solo]])
            base_min = float(solo_se.min()) if solo_se.size else np.inf
            grid_min = _matching_grid(pair_min, ul_idx, perms, base_min, np.minimum)
            base_ws = ws_ul_solo + solo_ws_dl[:, dl_solo].sum(axis=1)
            grid_ws = _matching_grid(pair_ws, ul_idx, perms, base_ws, np.add)
            values, flat_idx = _best_matching(grid_ws, grid_min, mus, len(perms))
            for k in np.flatnonzero(values > best_value):
                best_value[k] = values[k]
                perm_idx, *combo = np.unravel_index(flat_idx[k], grid_min.shape)
                best[k] = tuple(zip(ul_subset, perms[perm_idx].tolist())), tuple(combo)
    made = {b: _corner_schedule(Pairing.from_pairs(b[0], num_ul, num_dl), b[1], params)
            for b in dict.fromkeys(best)}   # one schedule per distinct winner
    return _outcomes([made[b] for b in best], gains, params, objectives)


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------

def solve_r_epa(gains: GainTable, params: ScenarioParams, objectives: Objectives,
                rng: np.random.Generator) -> list[ScheduleOutcome]:
    """Uniformly random maximal matching with everyone at max power.

    The schedule reads neither mu nor the weights, so it is drawn once and
    every objective after the first is only rescored (_outcomes).  User k
    of the smaller side pairs user perm[k] of the larger one."""
    if rng is None:
        raise ValueError("R-EPA needs a random generator")
    num_ul, num_dl = gains.num_ul, gains.num_dl
    perm = rng.permutation(max(num_ul, num_dl)).tolist()
    pairing = Pairing.from_pairs([(k, perm[k]) if num_ul <= num_dl else (perm[k], k)
                                  for k in range(min(num_ul, num_dl))], num_ul, num_dl)
    powers = PowerAllocation(np.full(num_ul, params.p_max_ul_w),
                             np.full(num_dl, params.p_max_dl_w))
    return _outcomes([(pairing, powers)] * len(objectives), gains, params, objectives)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

Strategy = Callable[[GainTable, ScenarioParams, Objectives,
                     Optional[np.random.Generator]], list[ScheduleOutcome]]

STRATEGIES: dict[str, Strategy] = {
    "P-OPT": solve_p_opt,
    "C-HUN": solve_c_hun,
    "C-NINT": solve_c_nint,
    "R-EPA": solve_r_epa,
}


def solve(name: str, gains: GainTable, params: ScenarioParams,
          objectives: Sequence[tuple[WeightMode, float]],
          rng: np.random.Generator | None = None) -> list[ScheduleOutcome]:
    """Solve one drop with strategy name for each (weight mode, mu) of
    objectives: one outcome per pair, in order.  Weights are made once per
    mode.  A mu outside [0, 1] anywhere in the list fails here, before any
    weights or schedule are built."""
    try:
        strategy = STRATEGIES[name]
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}") from None
    for _, mu in objectives:
        check_mu(mu)
    weights = {mode: make_weights(mode, gains)
               for mode in dict.fromkeys(mode for mode, _ in objectives)}
    return strategy(gains, params, [(weights[mode], mu) for mode, mu in objectives], rng)
