"""Scheduling strategies: exhaustive search (P-OPT), the centralized
Hungarian heuristic (C-HUN), its interference-blind variant (C-NINT) and
the random/equal-power baseline (R-EPA), plus the closed-form solution of
the dual linear program that motivates the heuristic.

All strategies map one drop (GainTable, ScenarioParams) and an objective
(per-user weights, mu) to a ScheduleOutcome whose metrics are computed on
the true gains.  Schedules must fit the channel budget: a drop with I UL
and J DL users and P pairs occupies I + J - P channels, so at least
I + J - F pairs are forced.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

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
    corner_points,
    corner_tables,
    make_weights,
    outcome_metrics,
    sinr,
)

_P_OPT_MAX_USERS = 10


class StrategyId(enum.Enum):
    P_OPT = "P-OPT"
    C_HUN = "C-HUN"
    C_NINT = "C-NINT"
    R_EPA = "R-EPA"


# Strategies whose pairing and powers read neither mu nor the weights.
OBJECTIVE_FREE_STRATEGIES = frozenset({StrategyId.R_EPA.value})


# ---------------------------------------------------------------------------
# Hungarian pipeline (shared by C-HUN and C-NINT)
# ---------------------------------------------------------------------------

def _hungarian_schedule(
    planning_gains: GainTable,
    params: ScenarioParams,
    weights: WeightVector,
    mu: float,
) -> tuple[Pairing, PowerAllocation]:
    """Benefit matrix -> assignment -> per-pair corner powers.

    Decisions are taken on planning_gains; the caller chooses which gains
    the outcome is evaluated on.
    """
    tables = corner_tables(planning_gains, params, weights, mu)
    pairing, _ = assign_with_solo(tables.benefit.max(axis=2), tables.solo_contrib_ul,
                                  tables.solo_contrib_dl, params.num_channels)

    corners = corner_points(params)
    p_ul = np.full(planning_gains.num_ul, params.p_max_ul_w)
    p_dl = np.full(planning_gains.num_dl, params.p_max_dl_w)
    for i, j in pairing.pairs():
        p_u, p_d = corners[tables.best_corner[i, j]]
        p_ul[i] = p_u
        p_dl[j] = p_d
    return pairing, PowerAllocation(p_ul, p_dl)


def solve_c_hun(gains: GainTable, params: ScenarioParams, weights: WeightVector,
                mu: float) -> ScheduleOutcome:
    """Centralized Hungarian heuristic.

    Each candidate pair is scored at its best power corner, the assignment
    problem over those scores (with stand-alone options where the channel
    budget permits) is solved exactly, and the stored corner powers are
    applied.
    """
    require_valid(params)
    pairing, powers = _hungarian_schedule(gains, params, weights, mu)
    return outcome_metrics(pairing, powers, gains, params, weights, mu)


def solve_c_nint(gains: GainTable, params: ScenarioParams, weights: WeightVector,
                 mu: float) -> ScheduleOutcome:
    """C-HUN planned as if UE-to-UE interference did not exist.

    The benefit matrix is built with all cross gains zeroed, so the planner
    overestimates every DL SINR; the returned outcome is evaluated on the
    true gains, so planned and realized spectral efficiencies differ.
    """
    require_valid(params)
    blind = GainTable(
        g_ul=gains.g_ul,
        g_dl=gains.g_dl,
        g_cross=np.zeros_like(gains.g_cross),
        positions=gains.positions,
    )
    pairing, powers = _hungarian_schedule(blind, params, weights, mu)
    return outcome_metrics(pairing, powers, gains, params, weights, mu)


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------

def _power_candidates(
    gains: GainTable,
    params: ScenarioParams,
    candidates,
) -> tuple[np.ndarray, np.ndarray]:
    """The SE of every (i, j, candidate) for candidate (p_u, p_d) pairs."""
    noise = params.noise_power_w
    p_u = np.array([c[0] for c in candidates])
    p_d = np.array([c[1] for c in candidates])
    se_ul = np.log2(1.0 + sinr(p_u, gains.g_ul[:, None, None], p_d,
                               params.si_cancellation, noise))
    se_dl = np.log2(1.0 + sinr(p_d, gains.g_dl[None, :, None], p_u,
                               gains.g_cross[:, :, None], noise))
    return se_ul, se_dl


def _best_matching(pair_ws, pair_min, ul_idx, perms, base_ws, base_min, mu,
                   combo_shape):
    """Best (value, DL partners, candidate combo) over the given matchings.

    perms[p, a] is the DL partner of UL user ul_idx[a] in matching p.  The
    objective of every (matching, combo) cell is built with a leading
    matching axis, adding the pair terms in pair order, and one argmax
    returns the first maximal cell: the first matching, then the first
    combo, as a strict-improvement scan over matchings would pick.
    """
    n_perm, n_pairs = perms.shape
    ws = pair_ws[ul_idx, perms]       # (n_perm, n_pairs, n_cand)
    mins = pair_min[ul_idx, perms]
    grid_ws = np.full((n_perm,) + (1,) * n_pairs, base_ws)
    grid_min = np.full((n_perm,) + (1,) * n_pairs, base_min)
    for axis in range(n_pairs):
        view = [n_perm] + [1] * n_pairs
        view[axis + 1] = -1
        grid_ws = grid_ws + ws[:, axis].reshape(view)
        grid_min = np.minimum(grid_min, mins[:, axis].reshape(view))
    grid_min *= mu
    grid_ws += grid_min
    grid_obj = grid_ws.reshape(n_perm, -1)
    flat_idx = int(np.argmax(grid_obj))
    if np.isnan(grid_obj.flat[flat_idx]):
        # argmax stops at the first NaN; a matching with a NaN cell never
        # beats the incumbent, so rule those matchings out.
        grid_obj[np.isnan(grid_obj).any(axis=1)] = -np.inf
        flat_idx = int(np.argmax(grid_obj))
    perm_idx, combo_idx = divmod(flat_idx, grid_obj.shape[1])
    combo = np.unravel_index(combo_idx, combo_shape) if n_pairs else ()
    return float(grid_obj.flat[flat_idx]), perms[perm_idx].tolist(), combo


def solve_p_opt(
    gains: GainTable,
    params: ScenarioParams,
    weights: WeightVector,
    mu: float,
) -> ScheduleOutcome:
    """Exhaustive search over all channel-feasible matchings and powers.

    Every matching with at least I + J - F pairs is enumerated (at full
    load, I = J = F, that means perfect matchings only); for each, every
    per-pair power corner combination is scored against the true
    objective with the global minimum term.  Unpaired users transmit at max
    power, which is optimal for them in a single cell.  The matchings of
    one (UL subset, DL subset) pair are scored together as one array of at
    most 5! * 3^5 cells.  Guarded to I + J <= 10 users.
    """
    require_valid(params)
    num_ul, num_dl = gains.num_ul, gains.num_dl
    if num_ul + num_dl > _P_OPT_MAX_USERS:
        raise ValueError(f"P-OPT is limited to {_P_OPT_MAX_USERS} users, "
                         f"got {num_ul + num_dl}")
    candidates = corner_points(params)
    cand_se_ul, cand_se_dl = _power_candidates(gains, params, candidates)
    n_cand = len(candidates)

    # Weighted-sum and pair-minimum of every (i, j, candidate).
    pair_ws = (1.0 - mu) * (weights.alpha_ul[:, None, None] * cand_se_ul
                            + weights.alpha_dl[None, :, None] * cand_se_dl)
    pair_min = np.minimum(cand_se_ul, cand_se_dl)

    tables = corner_tables(gains, params, weights, mu)
    solo_ws_ul, solo_ws_dl = tables.solo_contrib_ul, tables.solo_contrib_dl
    solo_se_ul, solo_se_dl = tables.solo_se_ul, tables.solo_se_dl

    min_pairs = max(0, num_ul + num_dl - params.num_channels)
    if min_pairs > min(num_ul, num_dl):
        raise ValueError(f"channel budget infeasible: {num_ul}+{num_dl} users on "
                         f"{params.num_channels} channels")

    best_value = -np.inf
    best_pairs: list[tuple[int, int]] = []
    best_combo: tuple[int, ...] = ()
    for n_pairs in range(min_pairs, min(num_ul, num_dl) + 1):
        # Permutations of subset positions, in itertools order; the
        # permutations of a DL subset are this array mapped through it.
        orders = list(itertools.permutations(range(n_pairs)))
        orders = np.array(orders, dtype=np.intp).reshape(len(orders), n_pairs)
        combo_shape = (n_cand,) * n_pairs
        for ul_subset in itertools.combinations(range(num_ul), n_pairs):
            ul_solo = [i for i in range(num_ul) if i not in ul_subset]
            ws_ul_solo = float(solo_ws_ul[ul_solo].sum())
            ul_idx = np.array(ul_subset, dtype=np.intp)
            for dl_subset in itertools.combinations(range(num_dl), n_pairs):
                dl_solo = [j for j in range(num_dl) if j not in dl_subset]
                base_ws = ws_ul_solo + float(solo_ws_dl[dl_solo].sum())
                solo_se = np.concatenate([solo_se_ul[ul_solo], solo_se_dl[dl_solo]])
                base_min = float(solo_se.min()) if solo_se.size else np.inf
                perms = np.array(dl_subset, dtype=np.intp)[orders]
                value, perm, combo = _best_matching(pair_ws, pair_min, ul_idx, perms,
                                                    base_ws, base_min, mu, combo_shape)
                if value > best_value:
                    best_value = value
                    best_pairs = list(zip(ul_subset, perm))
                    best_combo = combo

    pairing = Pairing.from_pairs(best_pairs, num_ul, num_dl)
    p_ul = np.full(num_ul, params.p_max_ul_w)
    p_dl = np.full(num_dl, params.p_max_dl_w)
    for (i, j), cand in zip(best_pairs, best_combo):
        p_u, p_d = candidates[cand]
        p_ul[i] = p_u
        p_dl[j] = p_d
    powers = PowerAllocation(p_ul, p_dl)
    return outcome_metrics(pairing, powers, gains, params, weights, mu)


# ---------------------------------------------------------------------------
# Random baseline
# ---------------------------------------------------------------------------

def solve_r_epa(
    gains: GainTable,
    params: ScenarioParams,
    weights: WeightVector,
    mu: float,
    rng: np.random.Generator,
) -> ScheduleOutcome:
    """Uniformly random maximal matching with everyone at max power."""
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
    return outcome_metrics(pairing, powers, gains, params, weights, mu)


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

Strategy = Callable[[GainTable, ScenarioParams, WeightVector, float,
                     Optional[np.random.Generator]], ScheduleOutcome]

STRATEGIES: dict[str, Strategy] = {
    StrategyId.P_OPT.value: lambda g, params, w, mu, rng: solve_p_opt(g, params, w, mu),
    StrategyId.C_HUN.value: lambda g, params, w, mu, rng: solve_c_hun(g, params, w, mu),
    StrategyId.C_NINT.value: lambda g, params, w, mu, rng: solve_c_nint(g, params, w, mu),
    StrategyId.R_EPA.value: solve_r_epa,
}


def solve(name: str, gains: GainTable, params: ScenarioParams, mode: WeightMode,
          mu: float, rng: np.random.Generator | None = None) -> ScheduleOutcome:
    """Solve one drop with strategy name, weights made from mode, and mu.
    A mu outside [0, 1] fails here, before any schedule is built."""
    try:
        strategy = STRATEGIES[name]
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}") from None
    check_mu(mu)
    return strategy(gains, params, make_weights(mode, gains), mu, rng)
