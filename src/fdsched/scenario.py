"""Random network drops for a hexagonal single cell.

One drop places the BS at the origin, scatters UL and DL users uniformly
over the cell hexagon, and derives all linear path gains from one
urban-micro propagation law at 2.5 GHz: distance-dependent LOS
probability, the two log-distance path-loss laws and i.i.d. log-normal
shadowing, drawn once per link.

Determinism contract: every function here is a pure function of its
arguments and the supplied numpy Generator, and consumes random draws in a
fixed documented order, so identical (params, seed) give bit-identical
results.
"""

from __future__ import annotations

import math

import numpy as np

from .model import DropPositions, GainTable, ScenarioParams

# Hexagon orientation: vertices on the x axis; edge normals at 30/90/150 deg.
_HEX_NORMALS = np.array([
    [math.cos(math.radians(a)), math.sin(math.radians(a))] for a in (30, 90, 150)
])

# Consecutive rejections before a UE is given up; signals inconsistent geometry.
_MAX_PLACEMENT_ATTEMPTS = 10_000


def path_loss_db(d_m, los):
    """Path loss in dB: 34.96 + 22.7 log10(d) on LOS links, 33.36 + 38.35
    log10(d) on NLOS ones.  Distances below 1 m are clamped; the laws are
    not valid in the near field."""
    log_d = np.log10(np.maximum(np.asarray(d_m, dtype=float), 1.0))
    return np.where(los, 34.96 + 22.7 * log_d, 33.36 + 38.35 * log_d)


def los_probability(d_m):
    """Urban-micro LOS probability, min(18/d, 1)(1 - e^(-d/36)) + e^(-d/36)."""
    d = np.maximum(np.asarray(d_m, dtype=float), 1.0)
    decay = np.exp(-d / 36.0)
    return np.minimum(18.0 / d, 1.0) * (1.0 - decay) + decay


def link_gain(d_m, los, shadow_db) -> np.ndarray:
    """Linear power gains 10^(-(PL(d) + shadow)/10), element by element over
    scalars or arrays of distances, LOS states and shadowing in dB."""
    return 10.0 ** (-(path_loss_db(d_m, los) + np.asarray(shadow_db, dtype=float)) / 10.0)


def draw_link_states(d_m, rng: np.random.Generator, sizes):
    """Draw (los, shadow_db) for links in consecutive groups of the given
    sizes (C order): a group's uniforms, one per link, then its standard
    normals, then the next group's.  A link is LOS when its uniform is below
    los_probability(d); its shadowing is its normal times 3 dB on LOS links
    and 4 dB on NLOS ones."""
    d = np.asarray(d_m, dtype=float)
    uniforms, normals = [], []
    for n in sizes:
        uniforms.append(rng.random(n))
        normals.append(rng.standard_normal(n))
    los = np.concatenate(uniforms).reshape(d.shape) < los_probability(d)
    shadow_db = np.concatenate(normals).reshape(d.shape) * np.where(los, 3.0, 4.0)
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


def build_gain_table(params: ScenarioParams, rng: np.random.Generator) -> GainTable:
    """Generate one drop and all its linear path gains.

    Draw order: positions (see drop_users, so rng must be a numpy
    Generator), then the UL links' LOS uniforms and shadowing normals, the
    DL links', and the cross links' (row-major over UL x DL).  Every link
    is drawn and evaluated in one pass.
    """
    positions = drop_users(params, rng)
    ul, dl = positions.ul, positions.dl
    n_ul, n_dl = len(ul), len(dl)
    d = np.concatenate([
        np.hypot(ul[:, 0], ul[:, 1]),
        np.hypot(dl[:, 0], dl[:, 1]),
        np.hypot(ul[:, None, 0] - dl[None, :, 0], ul[:, None, 1] - dl[None, :, 1]).ravel(),
    ])
    g = link_gain(d, *draw_link_states(d, rng, [n_ul, n_dl, n_ul * n_dl]))
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
