"""Random network drops for a hexagonal single cell.

One drop places the BS at the origin, scatters UL and DL users uniformly
over the cell hexagon, and derives all linear path gains from an
urban-micro propagation model: distance-dependent LOS probability, the
two log-distance path-loss laws and i.i.d. log-normal shadowing.

Determinism contract: every function here is a pure function of its
arguments and the supplied numpy Generator, and consumes random draws in a
fixed documented order, so identical (params, seed) give bit-identical
results.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import DropPositions, GainTable, ScenarioParams, require_valid, validate_gain_table

# Hexagon orientation: vertices on the x axis; edge normals at 30/90/150 deg.
_HEX_NORMALS = np.array([
    [math.cos(math.radians(a)), math.sin(math.radians(a))] for a in (30, 90, 150)
])

# Consecutive rejections before a UE is given up; signals inconsistent geometry.
_MAX_PLACEMENT_ATTEMPTS = 10_000

LOS_MODES = ("umi", "los", "nlos")


@dataclass(frozen=True)
class PropagationModel:
    """Urban-micro path loss at 2.5 GHz: intercept + slope * log10(d).

    los_mode selects how the LOS state of each link is drawn: "umi" applies
    the distance-dependent urban-micro LOS probability independently per
    link, "los"/"nlos" pin every link to one state (useful for tests).
    Distances below 1 m are clamped; the laws are not valid in the near
    field.
    """

    los_intercept_db: float = 34.96
    los_slope: float = 22.7
    nlos_intercept_db: float = 33.36
    nlos_slope: float = 38.35
    shadow_std_los_db: float = 3.0
    shadow_std_nlos_db: float = 4.0
    los_mode: str = "umi"

    def __post_init__(self):
        if self.los_mode not in LOS_MODES:
            raise ValueError(f"los_mode must be one of {LOS_MODES}, got {self.los_mode!r}")

    def path_loss_db(self, d_m, los):
        """Path loss in dB at distance d_m (clamped to >= 1 m)."""
        d = np.maximum(np.asarray(d_m, dtype=float), 1.0)
        return np.where(
            los,
            self.los_intercept_db + self.los_slope * np.log10(d),
            self.nlos_intercept_db + self.nlos_slope * np.log10(d),
        )

    def los_probability(self, d_m):
        """Urban-micro LOS probability, min(18/d, 1)(1 - e^(-d/36)) + e^(-d/36)."""
        d = np.maximum(np.asarray(d_m, dtype=float), 1.0)
        decay = np.exp(-d / 36.0)
        return np.minimum(18.0 / d, 1.0) * (1.0 - decay) + decay

    def shadow_std_db(self, los):
        return np.where(los, self.shadow_std_los_db, self.shadow_std_nlos_db)


def link_gain(model: PropagationModel, d_m, los, shadow_db) -> np.ndarray:
    """Linear power gain 10^(-(PL(d) + shadow)/10) of a single link.

    Accepts scalars or arrays; distance is clamped at 1 m.
    """
    pl = model.path_loss_db(d_m, los)
    return 10.0 ** (-(pl + np.asarray(shadow_db, dtype=float)) / 10.0)


def draw_link_states(model: PropagationModel, d_m, rng: np.random.Generator):
    """Draw (los, shadow_db) for an array of link distances.

    Consumes one uniform per link (skipped for pinned LOS modes) followed by
    one standard normal per link, in that order.
    """
    d = np.asarray(d_m, dtype=float)
    if model.los_mode == "los":
        los = np.ones(d.shape, dtype=bool)
    elif model.los_mode == "nlos":
        los = np.zeros(d.shape, dtype=bool)
    else:
        los = rng.random(d.shape) < model.los_probability(d)
    shadow_db = rng.standard_normal(d.shape) * model.shadow_std_db(los)
    return los, shadow_db


def drop_users(params: ScenarioParams, rng: np.random.Generator) -> DropPositions:
    """Place the BS at the origin and all UEs uniformly over the hexagon.

    Candidates from the bounding square are rejected until they fall inside
    the hexagon of circumradius cell_radius_m, min_bs_ue_distance_m or more
    from the BS; UL users first.  A batch of one candidate per unplaced UE
    consumes exactly the draws of the one-at-a-time loop.  ValueError if a
    UE meets _MAX_PLACEMENT_ATTEMPTS consecutive rejections.
    """
    require_valid(params)
    r = params.cell_radius_m
    placed, unplaced, misses = [], params.num_ul + params.num_dl, 0
    while unplaced:
        cand = rng.uniform(-r, r, size=(unplaced, 2))
        # A matvec per candidate rounds bit for bit as `_HEX_NORMALS @ point`.
        inside = np.abs(_HEX_NORMALS @ cand[:, :, None]).max(axis=(1, 2)) <= r * math.sqrt(3) / 2
        hits = np.flatnonzero(inside & (np.hypot(*cand.T) >= params.min_bs_ue_distance_m))
        # Rejections before each hit and after the last; misses carries the run.
        gaps = np.diff(hits, prepend=-1 - misses, append=unplaced) - 1
        if gaps.max() >= _MAX_PLACEMENT_ATTEMPTS:
            raise ValueError("could not place a UE inside the cell; check cell_radius_m "
                             "against min_bs_ue_distance_m")
        misses = int(gaps[-1])
        placed.append(cand[hits])
        unplaced -= len(hits)
    pts = np.concatenate(placed)
    return DropPositions(bs=np.zeros(2), ul=pts[:params.num_ul], dl=pts[params.num_ul:])


def build_gain_table(
    params: ScenarioParams,
    rng: np.random.Generator,
    model: PropagationModel | None = None,
    cross_model: PropagationModel | None = None,
) -> GainTable:
    """Generate one drop and all its linear path gains.

    cross_model, when given, replaces the propagation model for the
    UE-to-UE interference links only; by default they follow the same model
    as the BS links.  Draw order: positions, then UL link states, DL link
    states, and cross link states (row-major over UL x DL).
    """
    model = model or PropagationModel()
    cross_model = cross_model or model
    positions = drop_users(params, rng)

    d_ul = np.hypot(positions.ul[:, 0], positions.ul[:, 1])
    d_dl = np.hypot(positions.dl[:, 0], positions.dl[:, 1])
    d_cross = np.hypot(
        positions.ul[:, None, 0] - positions.dl[None, :, 0],
        positions.ul[:, None, 1] - positions.dl[None, :, 1],
    )

    los_ul, shadow_ul = draw_link_states(model, d_ul, rng)
    los_dl, shadow_dl = draw_link_states(model, d_dl, rng)
    los_x, shadow_x = draw_link_states(cross_model, d_cross, rng)

    return GainTable(
        g_ul=link_gain(model, d_ul, los_ul, shadow_ul),
        g_dl=link_gain(model, d_dl, los_dl, shadow_dl),
        g_cross=link_gain(cross_model, d_cross, los_x, shadow_x),
        positions=positions,
    )


# ---------------------------------------------------------------------------
# Scenario dump/load (golden-scenario regression support)
# ---------------------------------------------------------------------------

def scenario_to_dict(gains: GainTable) -> dict:
    doc = {
        "g_ul": gains.g_ul.tolist(),
        "g_dl": gains.g_dl.tolist(),
        "g_cross": gains.g_cross.tolist(),
    }
    if gains.positions is not None:
        doc["positions"] = {
            "bs": gains.positions.bs.tolist(),
            "ul": gains.positions.ul.tolist(),
            "dl": gains.positions.dl.tolist(),
        }
    return doc


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
    report = validate_gain_table(gains)
    if not report.ok:
        raise ValueError(f"invalid gain table: {report}")
    return gains


def save_scenario(gains: GainTable, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(gains), indent=1, sort_keys=True))


def load_scenario(path) -> GainTable:
    return scenario_from_dict(json.loads(Path(path).read_text()))
