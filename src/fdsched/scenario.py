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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import DropPositions, GainTable, ScenarioParams

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
        log_d = np.log10(np.maximum(np.asarray(d_m, dtype=float), 1.0))
        return np.where(
            los,
            self.los_intercept_db + self.los_slope * log_d,
            self.nlos_intercept_db + self.nlos_slope * log_d,
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


def draw_link_states(model: PropagationModel, d_m, rng: np.random.Generator, sizes=None):
    """Draw (los, shadow_db) for an array of link distances.

    Consumes one uniform per link (skipped for pinned LOS modes) followed by
    one standard normal per link, in that order.  With sizes, the links are
    consecutive groups of those sizes (in C order), drawn group by group:
    the first group's uniforms and normals, then the next group's.
    """
    d = np.asarray(d_m, dtype=float)
    uniforms, normals = [], []
    for n in sizes or [d.size]:
        if model.los_mode == "umi":
            uniforms.append(rng.random(n))
        normals.append(rng.standard_normal(n))
    if model.los_mode == "umi":
        los = np.concatenate(uniforms).reshape(d.shape) < model.los_probability(d)
    else:
        los = np.full(d.shape, model.los_mode == "los")
    shadow_db = np.concatenate(normals).reshape(d.shape) * model.shadow_std_db(los)
    return los, shadow_db


def drop_users(params: ScenarioParams, rng: np.random.Generator) -> DropPositions:
    """Place the BS at the origin and all UEs uniformly over the hexagon.

    Candidates from the bounding square are rejected until they fall inside
    the hexagon of circumradius cell_radius_m, min_bs_ue_distance_m or more
    from the BS; UL users first.  The result and the generator's final
    position are those of drawing one candidate at a time: one block of
    candidates, sized from the acceptance ratio with a margin, is drawn
    (another only if it falls short), the first I + J hits are kept, and
    the generator is rewound through rng.bit_generator.state and made to
    redraw exactly the consumed candidates.  So rng must be a numpy
    Generator (or have its uniform and bit_generator.state).  ValueError if
    a UE meets _MAX_PLACEMENT_ATTEMPTS consecutive rejections; misses after
    the last needed hit do not count.
    """
    r, d_min = params.cell_radius_m, params.min_bs_ue_distance_m
    need = params.num_ul + params.num_dl
    # Hexagon minus the excluded disc, over the square; ScenarioParams keeps the
    # disc inside the apothem, so this is at least 6%.
    accept = (1.5 * math.sqrt(3) * r * r - math.pi * d_min * d_min) / (4 * r * r)
    start = rng.bit_generator.state
    found_at, drawn, misses = [], 0, 0
    while need:
        # About three standard deviations of the hit count to spare.
        size = int((need + 3 * math.sqrt(need) + 3) / accept)
        cand = rng.uniform(-r, r, size=(size, 2))
        # A matvec per candidate rounds bit for bit as `_HEX_NORMALS @ point`.
        inside = (np.abs(_HEX_NORMALS @ cand[:, :, None]) <= r * math.sqrt(3) / 2).all(axis=(1, 2))
        found = np.flatnonzero(inside & (np.hypot(*cand.T) >= d_min))[:need]
        need -= found.size
        # No run of rejections since the last hit is longer than misses + size.
        if misses + size >= _MAX_PLACEMENT_ATTEMPTS:
            # Rejections before each hit, and after the last one while UEs remain.
            bounds = np.concatenate(([-1 - misses], found, [size]))
            gaps = bounds[1:] - bounds[:-1] - 1
            if (gaps if need else gaps[:-1]).max() >= _MAX_PLACEMENT_ATTEMPTS:
                raise ValueError("could not place a UE inside the cell; check cell_radius_m "
                                 "against min_bs_ue_distance_m")
        misses = size - 1 - int(found[-1]) if found.size else misses + size
        found_at.append(drawn + found)
        drawn += size
    hits = np.concatenate(found_at)
    rng.bit_generator.state = start
    pts = rng.uniform(-r, r, size=(hits[-1] + 1, 2))[hits]
    return DropPositions(bs=np.zeros(2), ul=pts[:params.num_ul], dl=pts[params.num_ul:])


def build_gain_table(
    params: ScenarioParams,
    rng: np.random.Generator,
    cross_model: PropagationModel | None = None,
) -> GainTable:
    """Generate one drop and all its linear path gains.

    The BS links follow the default PropagationModel.  cross_model, when
    given, replaces it for the UE-to-UE interference links only.  Draw
    order: positions (see drop_users, so rng must be a numpy Generator),
    then the UL links' LOS uniforms and shadowing normals, the DL links',
    and the cross links' (row-major over UL x DL).  The link distances are
    computed once, and each run of links that shares a model (all of them
    by default) is evaluated in one pass.
    """
    model = PropagationModel()
    positions = drop_users(params, rng)
    ul, dl = positions.ul, positions.dl
    n_ul, n_dl = len(ul), len(dl)
    d = np.concatenate([
        np.hypot(ul[:, 0], ul[:, 1]),
        np.hypot(dl[:, 0], dl[:, 1]),
        np.hypot(ul[:, None, 0] - dl[None, :, 0], ul[:, None, 1] - dl[None, :, 1]).ravel(),
    ])
    links = [(model, n_ul), (model, n_dl), (cross_model or model, n_ul * n_dl)]
    gains, start = [], 0
    for link_model, run in itertools.groupby(links, key=lambda link: link[0]):
        sizes = [n for _, n in run]
        d_run = d[start:start + sum(sizes)]
        gains.append(link_gain(link_model, d_run, *draw_link_states(link_model, d_run, rng, sizes)))
        start += sum(sizes)
    g = np.concatenate(gains)
    return GainTable(g_ul=g[:n_ul], g_dl=g[n_ul:n_ul + n_dl],
                     g_cross=g[n_ul + n_dl:].reshape(n_ul, n_dl), positions=positions)


# ---------------------------------------------------------------------------
# Scenario dump (the dump_scenarios config key)
# ---------------------------------------------------------------------------

def scenario_to_dict(gains: GainTable) -> dict:
    """The gains (and positions, if any) of one drop as JSON-ready lists."""
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
