"""Shared domain types, unit conversions and parameter validation.

A schedule is a row of UL partners (the DL user each UL user pairs, -1
for one alone on its channel) with its UL and DL powers; Outcomes holds a
chunk's distinct schedules with their SEs and metrics, and which one each
(drop, objective) chose.

Everything downstream computes in linear units: watts for powers and
dimensionless linear factors for path gains.  dB and dBm appear only at the
configuration and reporting boundaries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def dbm_to_watts(x_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    """Convert a power in watts to dBm. Requires p_w > 0. np.log10, as
    math.log10 breaks the config.json round trip at 21.8 dBm."""
    return float(10.0 * np.log10(p_w) + 30.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Inverse of db_to_linear for x > 0: 10·log10(x), or the float one ulp
    below or above it when only that one converts back to x exactly (as at
    -4.88 dB, which would otherwise fail the config.json round trip)."""
    x_db = float(10.0 * np.log10(x))
    near = (x_db, math.nextafter(x_db, -math.inf), math.nextafter(x_db, math.inf))
    return next((d for d in near if db_to_linear(d) == x), x_db)


# ---------------------------------------------------------------------------
# Scenario parameters
# ---------------------------------------------------------------------------

class WeightMode(enum.Enum):
    """How the per-user weights of the scheduling objective are chosen.

    SUM_RATE uses unit weights everywhere.  PATH_LOSS_COMPENSATION uses the
    reciprocal of each user's direct-link gain, which biases the weighted-sum
    term toward cell-edge users.
    """

    SUM_RATE = "SR"
    PATH_LOSS_COMPENSATION = "PL"

    @classmethod
    def from_key(cls, key: str) -> "WeightMode":
        for mode in cls:
            if mode.value == key:
                return mode
        raise ValueError(f"unknown weight mode {key!r}; expected one of "
                         f"{[m.value for m in cls]}")


@dataclass(frozen=True)
class ScenarioParams:
    """Physical and system constants for one simulated cell.

    Defaults correspond to the small fully-loaded urban-micro setup used by
    the canned experiments: 100 m cell, per-channel noise of -116.4 dBm,
    24 dBm power caps and -100 dB residual self-interference.  The carrier
    (2.5 GHz) is fixed by the path-loss laws of scenario.path_loss_db.
    The scheduling objective (weights and mu) is not a property of the cell;
    each solve takes it as arguments (see solvers.solve).
    """

    num_ul: int = 4
    num_dl: int = 4
    num_channels: int = 4
    cell_radius_m: float = 100.0
    noise_power_w: float = dbm_to_watts(-116.4)
    si_cancellation: float = db_to_linear(-100.0)  # linear residual-SI factor
    p_max_ul_w: float = dbm_to_watts(24.0)
    p_max_dl_w: float = dbm_to_watts(24.0)
    min_bs_ue_distance_m: float = 3.0
    rng_seed: int = 0

    def __post_init__(self):
        """Reject a cell that breaks any rule, with one ValueError listing them all."""
        bad = [f"{name} must be finite, got {value}" for name, value in vars(self).items()
               if isinstance(value, float) and not math.isfinite(value)]
        if self.rng_seed < 0:
            bad.append(f"rng_seed must be nonnegative, got {self.rng_seed}")
        if self.num_ul < 0 or self.num_dl < 0:
            bad.append(f"num_ul/num_dl must be nonnegative, got {self.num_ul}/{self.num_dl}")
        if self.num_ul + self.num_dl < 1:
            bad.append("at least one user required (num_ul + num_dl >= 1)")
        if self.num_channels < 1:
            bad.append(f"num_channels must be >= 1, got {self.num_channels}")
        if self.num_ul > self.num_channels:
            bad.append(f"num_ul ({self.num_ul}) exceeds num_channels ({self.num_channels})")
        if self.num_dl > self.num_channels:
            bad.append(f"num_dl ({self.num_dl}) exceeds num_channels ({self.num_channels})")
        if not self.cell_radius_m > 0:
            bad.append(f"cell_radius_m must be positive, got {self.cell_radius_m}")
        if not self.noise_power_w > 0:
            bad.append(f"noise_power_w must be positive, got {self.noise_power_w}")
        if not 0.0 < self.si_cancellation <= 1.0:
            bad.append(f"si_cancellation must lie in (0, 1], got {self.si_cancellation}")
        if not self.p_max_ul_w > 0 or not self.p_max_dl_w > 0:
            bad.append("power caps p_max_ul_w/p_max_dl_w must be positive")
        if self.min_bs_ue_distance_m < 0:
            bad.append(f"min_bs_ue_distance_m must be >= 0, got {self.min_bs_ue_distance_m}")
        elif self.min_bs_ue_distance_m >= self.cell_radius_m * math.sqrt(3) / 2:
            bad.append("min_bs_ue_distance_m leaves no room inside the cell hexagon")
        if bad:
            raise ValueError(f"invalid scenario parameters: {'; '.join(bad)}")


# ---------------------------------------------------------------------------
# Gains of a drop, or of a chunk of drops
# ---------------------------------------------------------------------------

def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DropPositions:
    """BS and UE coordinates in meters (audit data), with its GainTable's leading axes."""

    bs: np.ndarray   # shape (..., 2)
    ul: np.ndarray   # shape (..., I, 2)
    dl: np.ndarray   # shape (..., J, 2)

    def __post_init__(self):
        for name in ("bs", "ul", "dl"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


@dataclass(frozen=True)
class GainTable:
    """Linear-scale path gains of one drop, or of a chunk along a leading axis.

    g_ul[..., i] is the gain from UL user i to the BS, g_dl[..., j] from the
    BS to DL user j, and g_cross[..., i, j] the interfering gain from UL
    user i to DL user j.  Arrays are read-only after construction.
    """

    g_ul: np.ndarray       # shape (..., I)
    g_dl: np.ndarray       # shape (..., J)
    g_cross: np.ndarray    # shape (..., I, J)
    positions: Optional[DropPositions] = None

    def __post_init__(self):
        for name in ("g_ul", "g_dl", "g_cross"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if self.g_cross.shape != self.g_ul.shape + self.g_dl.shape[-1:]:
            raise ValueError(f"g_cross shape {self.g_cross.shape} does not match "
                             f"{self.g_ul.shape + self.g_dl.shape[-1:]}")

    @property
    def num_ul(self) -> int:
        return self.g_ul.shape[-1]

    @property
    def num_dl(self) -> int:
        return self.g_dl.shape[-1]

    def drop(self, d: int) -> "GainTable":
        """Drop d of a chunk: views of its rows, read-only already, so not re-wrapped."""
        view, at = object.__new__(GainTable), self.positions
        view.__dict__.update(g_ul=self.g_ul[d], g_dl=self.g_dl[d], g_cross=self.g_cross[d],
                             positions=at and DropPositions(at.bs[d], at.ul[d], at.dl[d]))
        return view


# ---------------------------------------------------------------------------
# Objectives and outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Per-user objective weights (dimensionless, strictly positive)."""

    alpha_ul: np.ndarray
    alpha_dl: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha_ul", _readonly(self.alpha_ul))
        object.__setattr__(self, "alpha_dl", _readonly(self.alpha_dl))


@dataclass(frozen=True)
class Outcomes:
    """What a strategy chose for every drop d and objective k of a chunk.

    schedule[d, k] is the row of the chunk's distinct schedules that (d, k)
    chose, objective[d, k] its scalarized value (1-mu) * sum(alpha * SE) +
    mu * min(SE), the minimum ranging over all UL and DL users together.
    Row s of the other arrays is distinct schedule s: partner_ul[s, i] is
    the DL user paired with UL user i, or -1 when it holds a frequency
    channel alone; p_ul and p_dl are the transmit powers in watts, se_ul and
    se_dl the SEs, and sum_se, min_se and jain the metrics of its users.
    Two objectives of a drop share a row exactly when they chose the same
    partners and powers.  Arrays are read-only after construction.
    """

    schedule: np.ndarray     # (D, K) rows of the arrays below
    objective: np.ndarray    # (D, K)
    partner_ul: np.ndarray   # (S, I)
    p_ul: np.ndarray         # (S, I) W
    p_dl: np.ndarray         # (S, J) W
    se_ul: np.ndarray        # (S, I) bit/s/Hz per UL user
    se_dl: np.ndarray        # (S, J) bit/s/Hz per DL user
    sum_se: np.ndarray       # (S,)
    min_se: np.ndarray       # (S,)
    jain: np.ndarray         # (S,)

    def __post_init__(self):
        for name, value in vars(self).items():
            integral = name in ("schedule", "partner_ul")
            object.__setattr__(self, name, _readonly(value, np.intp if integral else float))
