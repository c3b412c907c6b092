"""Physical-layer math: the SINR kernel, weights, the corner-point tables
of every UL/DL pair and the evaluation of realized schedules, a chunk's
at once: each a row of UL partners (-1 for a user alone) and powers.

A pair sharing a frequency channel interacts two ways: the DL transmission
leaks into the BS receiver through the residual self-interference factor,
and the UL transmitter interferes with the DL receiver through the UE-to-UE
cross gain.  Users alone on a channel see neither term.

The per-pair power choice is restricted to the three corner points
(Pmax_u, Pmax_d), (Pmax_u, 0) and (0, Pmax_d).  Binary power control is
optimal for the sum rate of two links with equal weights (SR; Gjendemsjø,
Gesbert, Øien, Kiani, IEEE Trans. Wireless Commun. 7(8), 2008), not for
every weighted sum: under PL weights a pair's best power lies off the
corners in 0.6-12% of fig3 pairs, even at mu = 0.  The same corner set is
applied to every weighting and to the fairness term (see corner_benefit).
The corners' SEs form four arrays (corner_tables): UL paired (I,), DL
paired (I, J), UL solo (I,) and DL solo (J,), after any leading drop
axis.  They read no weights, so one table serves every objective; the
weights and mu are arguments of the scoring step, not ScenarioParams
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import jain_index
from .model import GainTable, ScenarioParams, WeightMode, WeightVector


def sinr(p_tx, g_tx, p_int, g_int, noise):
    """SINR p_tx g_tx / (noise + p_int g_int), for scalars or broadcast arrays.

    For UL, g_int is the residual self-interference factor and p_int the DL
    power sharing the channel; for DL, g_int is the UE-to-UE cross gain and
    p_int the UL power.  A user alone on a channel has p_int = 0.
    """
    return p_tx * g_tx / (noise + p_int * g_int)


def make_weights(mode: WeightMode, gains: GainTable) -> WeightVector:
    """Unit weights for SUM_RATE; reciprocal direct gains for PL (any leading axes)."""
    if mode is WeightMode.SUM_RATE:
        return WeightVector(np.ones(gains.g_ul.shape), np.ones(gains.g_dl.shape))
    if mode is WeightMode.PATH_LOSS_COMPENSATION:
        if (gains.g_ul.size and gains.g_ul.min() <= 0) or \
           (gains.g_dl.size and gains.g_dl.min() <= 0):
            raise ValueError("path-loss compensation needs strictly positive direct gains")
        return WeightVector(1.0 / gains.g_ul, 1.0 / gains.g_dl)
    raise ValueError(f"unknown weight mode {mode!r}")


def corner_points(params: ScenarioParams) -> tuple[tuple[float, float], ...]:
    """The three candidate (p_u, p_d) corners, in tie-break preference order."""
    pu, pd = params.p_max_ul_w, params.p_max_dl_w
    return ((pu, pd), (pu, 0.0), (0.0, pd))


# ---------------------------------------------------------------------------
# Vectorized corner tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CornerTables:
    """Spectral efficiencies of the three corners of every pair, free of
    any weights or mu, so one table serves every objective of a drop.

    At (Pmax, Pmax) UL user i reads paired_se_ul[i], whatever its partner
    (the self-interference does not depend on it), and DL user j paired
    with i reads paired_se_dl[i, j].  At a one-user corner the served user
    reads its SE alone at max power, solo_se_ul (I,) or solo_se_dl (J,),
    and the silent one reads 0.
    """

    paired_se_ul: np.ndarray
    paired_se_dl: np.ndarray
    solo_se_ul: np.ndarray
    solo_se_dl: np.ndarray


def corner_tables(gains: GainTable, params: ScenarioParams) -> CornerTables:
    """Evaluate the corner SEs of every user and pair (i, j) of every drop at once.

    A user at zero power adds no interference, so a zero-power corner reads
    the partner's stand-alone SE."""
    noise = params.noise_power_w
    pu, pd = params.p_max_ul_w, params.p_max_dl_w
    return CornerTables(
        paired_se_ul=np.log2(1.0 + sinr(pu, gains.g_ul, pd, params.si_cancellation, noise)),
        paired_se_dl=np.log2(1.0 + sinr(pd, gains.g_dl[..., None, :], pu, gains.g_cross, noise)),
        solo_se_ul=np.log2(1.0 + sinr(pu, gains.g_ul, 0.0, 0.0, noise)),
        solo_se_dl=np.log2(1.0 + sinr(pd, gains.g_dl, 0.0, 0.0, noise)))


# corner_benefit adds its mu * min term through a buffer of at most about this
# many floats (one drop's pairs if they are more), not one the size of a chunk
_BLOCK_ENTRIES = 8192


def corner_benefit(tables: CornerTables, weights: WeightVector, mu):
    """Score a CornerTables under the weights and mu: (best, corner,
    solo_contrib_ul, solo_contrib_dl), where best[i, j] is pair (i, j)'s
    benefit (1-mu)(a_u c_u + a_d c_d) + mu min(c_u, c_d) at its best corner
    and corner[i, j] that corner's corner_points index, the first of tied
    maxima, so ties resolve toward (Pmax, Pmax), then (Pmax, 0): serve both
    users when the benefit does not say otherwise.  A NaN benefit gives a
    NaN best, which the assignment rejects.  The one-user corners score
    (1 - mu) alpha SE, the benefit at a silent partner; solo_contrib_* are
    the stand-alone alternatives' weighted-sum parts.  Leading axes
    broadcast, the weights carrying all of them: (K, I) and (K, J) weights
    with (K,) mu score K objectives, and (K, D, I) and (K, D, J) ones with
    (K, 1) mu a chunk's (D, ...) tables."""
    mu = np.asarray(mu)[..., None]
    scale = 1.0 - mu
    se_ul, se_dl = tables.paired_se_ul[..., :, None], tables.paired_se_dl
    ul_only = (scale * (weights.alpha_ul * tables.solo_se_ul))[..., :, None]
    dl_only = (scale * (weights.alpha_dl * tables.solo_se_dl))[..., None, :]
    # the (Pmax, Pmax) benefit, rounded as (1-mu) * (a_u c_u + a_d c_d) + mu * min(c_u, c_d)
    # but written in place, its mu * min term one objective and one block of
    # drops at a time, through a buffer of at most about _BLOCK_ENTRIES floats
    best = weights.alpha_dl[..., None, :] * se_dl
    best += weights.alpha_ul[..., :, None] * se_ul
    best *= scale[..., None]
    drops = math.prod(se_dl.shape[:-2])
    drops_ul, drops_dl = (a.reshape(drops, *a.shape[-2:]) for a in (se_ul, se_dl))   # views
    lead = best.shape[:best.ndim - se_dl.ndim]
    by_drop = best.reshape(lead + drops_dl.shape)
    mus = np.broadcast_to(mu[..., None], lead + (1,) * se_dl.ndim)
    step = max(_BLOCK_ENTRIES // max(math.prod(se_dl.shape[-2:]), 1), 1)
    low = np.empty((min(step, drops), *drops_dl.shape[1:]))
    for at in np.ndindex(lead):
        for lo in range(0, drops, step):
            hi = min(lo + step, drops)
            block = low[:hi - lo]
            by_drop[at][lo:hi] += np.multiply(
                mus[at], np.minimum(drops_ul[lo:hi], drops_dl[lo:hi], out=block), out=block)
    # the first best corner: a one-user corner only where it beats (Pmax, Pmax)
    corner = (ul_only < dl_only) + np.int8(1)
    corner *= (best < ul_only) | (best < dl_only)
    np.maximum(best, ul_only, out=best)
    np.maximum(best, dl_only, out=best)
    return (best, corner, scale * weights.alpha_ul * tables.solo_se_ul,
            scale * weights.alpha_dl * tables.solo_se_dl)


# ---------------------------------------------------------------------------
# Outcome assembly
# ---------------------------------------------------------------------------

def check_mu(mu: float) -> None:
    """Raise ValueError unless 0 <= mu <= 1 (so NaN fails too)."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")


def objective_value(se_ul, se_dl, min_se, weights: WeightVector, mu):
    """The scalarized objective (1-mu)(alpha . SE) + mu min_se of realized
    SEs, for every row at once: (..., I) and (..., J) SEs and weights with
    (...) minima and mu.  Every strategy scores its outcomes here, so here a
    mu outside [0, 1] fails even when a strategy function is called directly
    rather than by solve.  alpha . SE is a batched matmul, each row's vector @."""
    mu = np.asarray(mu, dtype=float)
    bad = mu[~((mu >= 0.0) & (mu <= 1.0))]
    if bad.size:
        check_mu(float(bad.flat[0]))
    weighted = (np.matmul(weights.alpha_ul[..., None, :], se_ul[..., :, None])
                + np.matmul(weights.alpha_dl[..., None, :], se_dl[..., :, None]))[..., 0, 0]
    return (1.0 - mu) * weighted + mu * min_se


def outcome_metrics(gains: GainTable, params: ScenarioParams, drops, partner_ul, p_ul, p_dl):
    """Evaluate S schedules of a chunk at once: schedule s runs on drop
    drops[s] of gains (a GainTable with a leading drop axis), pairs UL user
    i with DL user partner_ul[s, i] (-1: alone on its channel) and transmits
    at p_ul[s] and p_dl[s] watts.  Returns the (S, I) UL and (S, J) DL SEs
    and each schedule's sum, minimum and Jain index over all its users.

    A paired user's interference comes from its partner's power, a user
    alone sees noise only.  ValueError for shapes that do not match the
    gains, a partner outside [-1, J) or a DL user in two pairs.
    """
    drops, partner_ul = np.asarray(drops), np.asarray(partner_ul)
    p_ul, p_dl = np.asarray(p_ul, dtype=float), np.asarray(p_dl, dtype=float)
    count, num_ul, num_dl = len(drops), gains.num_ul, gains.num_dl
    if (drops.shape != (count,) or partner_ul.shape != (count, num_ul)
            or p_ul.shape != (count, num_ul) or p_dl.shape != (count, num_dl)):
        raise ValueError(f"schedule shapes {partner_ul.shape}, {p_ul.shape} and {p_dl.shape} "
                         f"do not match {count} schedules of {num_ul}+{num_dl} users")
    if partner_ul.size and not (-1 <= partner_ul.min() and partner_ul.max() < num_dl):
        raise ValueError(f"a UL partner is out of range for {num_dl} DL users")
    ordered = np.sort(partner_ul, axis=1)
    if ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any():
        raise ValueError("a DL user is paired twice: a pair reuses a user of another pair")

    # the interference each user sees: 0.0 W across a 0.0 gain when alone
    s, i = np.nonzero(partner_ul >= 0)
    j = partner_ul[s, i]
    ul_from, dl_from, dl_gain = np.zeros(p_ul.shape), np.zeros(p_dl.shape), np.zeros(p_dl.shape)
    ul_from[s, i], dl_from[s, j] = p_dl[s, j], p_ul[s, i]
    dl_gain[s, j] = gains.g_cross[drops[s], i, j]
    noise = params.noise_power_w
    ul = 1.0 + sinr(p_ul, gains.g_ul[drops], ul_from, params.si_cancellation, noise)
    dl = 1.0 + sinr(p_dl, gains.g_dl[drops], dl_from, dl_gain, noise)
    # math.log2, not np.log2: the golden digests pin libm's log2 for reported
    # SEs, and numpy's SIMD log2 differs from it in the last bit on some inputs.
    se = np.array([math.log2(x) for x in np.concatenate([ul, dl], axis=1).ravel().tolist()])
    se = se.reshape(count, num_ul + num_dl)
    return se[:, :num_ul], se[:, num_ul:], se.sum(axis=1), se.min(axis=1), jain_index(se)
