"""Scheduling strategies: exhaustive search (P-OPT), the centralized
Hungarian heuristic (C-HUN), its interference-blind variant (C-NINT) and
the random/equal-power baseline (R-EPA), plus the closed-form solution of
the dual linear program that motivates the heuristic.

All strategies share one signature: they map one drop (GainTable,
ScenarioParams), a list of objectives (per-user weights, mu) and a random
generator to one ScheduleOutcome per objective, in order, with metrics
computed on the true gains.  Whatever reads no weights (the corner SEs,
P-OPT's enumeration set-up, R-EPA's draw) is done once per drop.
Schedules must fit the channel budget: a drop with I UL and J DL users and
P pairs occupies I + J - P channels, so at least I + J - F pairs are
forced.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional, Sequence

import numpy as np

from .assignment import assign_with_solo
from .model import (
    GainTable,
    Pairing,
    PowerAllocation,
    ScenarioParams,
    ScheduleOutcome,
    WeightMode,
    WeightVector,
    require_valid,
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


class StrategyId(enum.Enum):
    P_OPT = "P-OPT"
    C_HUN = "C-HUN"
    C_NINT = "C-NINT"
    R_EPA = "R-EPA"


# Strategies whose pairing and powers read neither mu nor the weights.
OBJECTIVE_FREE_STRATEGIES = frozenset({StrategyId.R_EPA.value})


Objectives = Sequence[tuple[WeightVector, float]]


# ---------------------------------------------------------------------------
# Hungarian pipeline (shared by C-HUN and C-NINT)
# ---------------------------------------------------------------------------

def _hungarian_schedules(planning_gains: GainTable, gains: GainTable,
                         params: ScenarioParams, objectives: Objectives) -> list[ScheduleOutcome]:
    """Corner tables -> per objective: benefit -> assignment -> per-pair
    corner powers -> outcome.

    Decisions are taken on planning_gains; outcomes are evaluated on gains.
    """
    require_valid(params)
    tables = corner_tables(planning_gains, params)
    corners = corner_points(params)
    outcomes = []
    for weights, mu in objectives:
        scores = corner_benefit(tables, weights, mu)
        pairing, _ = assign_with_solo(scores.benefit.max(axis=2), scores.solo_contrib_ul,
                                      scores.solo_contrib_dl, params.num_channels)
        p_ul = np.full(gains.num_ul, params.p_max_ul_w)
        p_dl = np.full(gains.num_dl, params.p_max_dl_w)
        for i, j in pairing.pairs():
            p_ul[i], p_dl[j] = corners[scores.best_corner[i, j]]
        outcomes.append(outcome_metrics(pairing, PowerAllocation(p_ul, p_dl), gains,
                                        params, weights, mu))
    return outcomes


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
    pair a of matching p at candidate c_a."""
    n_perm, n_pairs = perms.shape
    values = pair_values[ul_idx, perms]       # (n_perm, n_pairs, n_cand)
    grid = np.full((n_perm,) + (1,) * n_pairs, base)
    for axis in range(n_pairs):
        view = [n_perm] + [1] * n_pairs
        view[axis + 1] = -1
        grid = combine(grid, values[:, axis].reshape(view))
    return grid


def _best_matching(grid_ws, grid_min, mu, perms, combo_shape):
    """Best (value, DL partners, candidate combo) over the given matchings.

    grid_ws and grid_min are the _matching_grid sums and minima of perms.
    One argmax over the objective of every (matching, combo) cell returns
    the first maximal cell: the first matching, then the first combo, as a
    strict-improvement scan over matchings would pick.
    """
    grid_ws += mu * grid_min
    grid_obj = grid_ws.reshape(len(perms), -1)
    flat_idx = int(np.argmax(grid_obj))
    if np.isnan(grid_obj.flat[flat_idx]):
        # argmax stops at the first NaN; a matching with a NaN cell never
        # beats the incumbent, so rule those matchings out.
        grid_obj[np.isnan(grid_obj).any(axis=1)] = -np.inf
        flat_idx = int(np.argmax(grid_obj))
    perm_idx, combo_idx = divmod(flat_idx, grid_obj.shape[1])
    combo = np.unravel_index(combo_idx, combo_shape) if combo_shape else ()
    return float(grid_obj.flat[flat_idx]), perms[perm_idx].tolist(), combo


def solve_p_opt(gains: GainTable, params: ScenarioParams, objectives: Objectives,
                rng: np.random.Generator | None = None) -> list[ScheduleOutcome]:
    """Exhaustive search over all channel-feasible matchings and powers.

    Every matching with at least I + J - F pairs is enumerated (at full
    load, I = J = F, that means perfect matchings only); for each, every
    per-pair power corner combination is scored against the true
    objective with the global minimum term.  Unpaired users transmit at max
    power, which is optimal for them in a single cell.  The matchings of
    one (UL subset, DL subset) pair are scored together as one array of at
    most 5! * 3^5 cells.  The subsets, their permutations and the minimum
    SE of every cell read no weights, so they are set up once for all
    objectives.  Guarded to I + J <= 10 users.
    """
    require_valid(params)
    num_ul, num_dl = gains.num_ul, gains.num_dl
    if num_ul + num_dl > _P_OPT_MAX_USERS:
        raise ValueError(f"P-OPT is limited to {_P_OPT_MAX_USERS} users, "
                         f"got {num_ul + num_dl}")
    min_pairs = max(0, num_ul + num_dl - params.num_channels)
    if min_pairs > min(num_ul, num_dl):
        raise ValueError(f"channel budget infeasible: {num_ul}+{num_dl} users on "
                         f"{params.num_channels} channels")
    candidates = corner_points(params)
    tables = corner_tables(gains, params)
    pair_min = np.minimum(tables.se_ul, tables.se_dl)

    # Per UL subset: its solo users and index array, and per DL subset the
    # DL solo users, the matchings as DL partner arrays and every cell's
    # minimum SE.
    plans = []
    for n_pairs in range(min_pairs, min(num_ul, num_dl) + 1):
        # Permutations of subset positions, in itertools order; the
        # permutations of a DL subset are this array mapped through it.
        orders = list(itertools.permutations(range(n_pairs)))
        orders = np.array(orders, dtype=np.intp).reshape(len(orders), n_pairs)
        combo_shape = (len(candidates),) * n_pairs
        for ul_subset in itertools.combinations(range(num_ul), n_pairs):
            ul_solo = [i for i in range(num_ul) if i not in ul_subset]
            ul_idx = np.array(ul_subset, dtype=np.intp)
            dl_plans = []
            for dl_subset in itertools.combinations(range(num_dl), n_pairs):
                dl_solo = [j for j in range(num_dl) if j not in dl_subset]
                solo_se = np.concatenate([tables.solo_se_ul[ul_solo],
                                          tables.solo_se_dl[dl_solo]])
                base_min = float(solo_se.min()) if solo_se.size else np.inf
                perms = np.array(dl_subset, dtype=np.intp)[orders]
                dl_plans.append((dl_solo, perms, _matching_grid(pair_min, ul_idx, perms,
                                                                base_min, np.minimum)))
            plans.append((ul_subset, ul_solo, ul_idx, combo_shape, dl_plans))

    outcomes = []
    for weights, mu in objectives:
        # Weighted-sum part of every (i, j, corner).
        pair_ws = (1.0 - mu) * (weights.alpha_ul[:, None, None] * tables.se_ul
                                + weights.alpha_dl[None, :, None] * tables.se_dl)
        scores = corner_benefit(tables, weights, mu)
        best_value = -np.inf
        best_pairs: list[tuple[int, int]] = []
        best_combo: tuple[int, ...] = ()
        for ul_subset, ul_solo, ul_idx, combo_shape, dl_plans in plans:
            ws_ul_solo = float(scores.solo_contrib_ul[ul_solo].sum())
            for dl_solo, perms, grid_min in dl_plans:
                base_ws = ws_ul_solo + float(scores.solo_contrib_dl[dl_solo].sum())
                grid_ws = _matching_grid(pair_ws, ul_idx, perms, base_ws, np.add)
                value, perm, combo = _best_matching(grid_ws, grid_min, mu, perms,
                                                    combo_shape)
                if value > best_value:
                    best_value = value
                    best_pairs = list(zip(ul_subset, perm))
                    best_combo = combo

        pairing = Pairing.from_pairs(best_pairs, num_ul, num_dl)
        p_ul = np.full(num_ul, params.p_max_ul_w)
        p_dl = np.full(num_dl, params.p_max_dl_w)
        for (i, j), cand in zip(best_pairs, best_combo):
            p_ul[i], p_dl[j] = candidates[cand]
        outcomes.append(outcome_metrics(pairing, PowerAllocation(p_ul, p_dl), gains,
                                        params, weights, mu))
    return outcomes


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------

def solve_r_epa(gains: GainTable, params: ScenarioParams, objectives: Objectives,
                rng: np.random.Generator) -> list[ScheduleOutcome]:
    """Uniformly random maximal matching with everyone at max power.

    The schedule reads neither mu nor the weights, so it is drawn and
    evaluated once; every further objective only rescores its SEs."""
    require_valid(params)
    if rng is None:
        raise ValueError("R-EPA needs a random generator")
    num_ul, num_dl = gains.num_ul, gains.num_dl
    if num_ul <= num_dl:
        perm = rng.permutation(num_dl)
        pairing = Pairing.from_ul_partners([int(perm[i]) for i in range(num_ul)], num_dl)
    else:
        perm = rng.permutation(num_ul)
        pairing = Pairing.from_pairs([(int(perm[j]), j) for j in range(num_dl)],
                                     num_ul, num_dl)
    powers = PowerAllocation(np.full(num_ul, params.p_max_ul_w),
                             np.full(num_dl, params.p_max_dl_w))
    outcomes = []
    for weights, mu in objectives:
        if not outcomes:
            outcomes.append(outcome_metrics(pairing, powers, gains, params, weights, mu))
            continue
        first = outcomes[0]
        outcomes.append(ScheduleOutcome(
            pairing=pairing, powers=powers, se_ul=first.se_ul, se_dl=first.se_dl,
            objective=objective_value(first.se_ul, first.se_dl, first.min_se, weights, mu),
            sum_se=first.sum_se, min_se=first.min_se, jain=first.jain))
    return outcomes


# ---------------------------------------------------------------------------
# Dual LP
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

Strategy = Callable[[GainTable, ScenarioParams, Objectives,
                     Optional[np.random.Generator]], list[ScheduleOutcome]]

STRATEGIES: dict[str, Strategy] = {
    StrategyId.P_OPT.value: solve_p_opt,
    StrategyId.C_HUN.value: solve_c_hun,
    StrategyId.C_NINT.value: solve_c_nint,
    StrategyId.R_EPA.value: solve_r_epa,
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
