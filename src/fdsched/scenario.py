"""Random network drops for a hexagonal single cell.

One drop places the BS at the origin, scatters UL and DL users uniformly
over the cell hexagon, and derives all linear path gains from one
urban-micro propagation law at 2.5 GHz: distance-dependent LOS
probability, the two log-distance path-loss laws and i.i.d. log-normal
shadowing, drawn once per link.

build_gain_table makes a chunk of drops, one per generator, as one
GainTable with a leading drop axis.  Each generator makes its own draws in
a fixed documented order: its candidate positions, rewound past the last
one its drop uses, then its links' LOS uniforms and shadowing normals,
group by group, and every step is evaluated over the whole chunk.

Determinism contract: every function here is a pure function of its
arguments and the supplied numpy Generators, and consumes random draws in
a fixed documented order, so identical (params, seed) give bit-identical
results, whatever batch a drop is made in.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .model import DropPositions, GainTable, ScenarioParams

# Hexagon orientation: vertices on the x axis; edge normals at 30/90/150 deg.
_HEX_NORMALS = np.array([
    [math.cos(math.radians(a)), math.sin(math.radians(a))] for a in (30, 90, 150)
])

# Consecutive rejections before a UE is given up; signals inconsistent geometry.
_MAX_PLACEMENT_ATTEMPTS = 10_000

# build_gain_table evaluates the propagation law over blocks of drops with
# about this many links (64 KB a float64 array), so its temporaries stay
# small and in cache however many drops a batch holds.  At 25+25 in
# batches of 64-168 drops on a shared 2-core x86 host, blocks of 4,096 /
# 8,192 / 16,384 / 32,768 links took about 90 / 72 / 78 / 80 us a drop, and
# one block per batch about 110 us.
_BLOCK_LINKS = 8192


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


def draw_link_states(d_m, rngs: Sequence[np.random.Generator], sizes):
    """Draw (los, shadow_db) for d_m's links, one row of links (C order) per
    generator of rngs: each generator draws its row in consecutive groups of
    the given sizes, a group's uniforms, one per link, then its standard
    normals, then the next group's.  A link is LOS when its uniform is below
    los_probability(d); its shadowing is its normal times 3 dB on LOS links
    and 4 dB on NLOS ones.  ValueError unless the groups cover every row."""
    d = np.asarray(d_m, dtype=float)
    uniforms, normals = np.empty((2, len(rngs), sum(sizes)))
    if uniforms.size != d.size:
        raise ValueError(f"link groups {list(sizes)} for {len(rngs)} generators do not "
                         f"cover {d.size} links")
    for rng, u, z in zip(rngs, uniforms, normals):
        start = 0
        for n in sizes:
            rng.random(out=u[start:start + n])
            rng.standard_normal(out=z[start:start + n])
            start += n
    los = uniforms.reshape(d.shape) < los_probability(d)
    return los, normals.reshape(d.shape) * np.where(los, 3.0, 4.0)


def _placed_users(params: ScenarioParams, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """(drops, I + J, 2) UE positions, one drop per generator, UL users
    first: each UE is the first of its generator's candidates, uniform over
    the bounding square, to fall inside the hexagon of circumradius
    cell_radius_m and min_bs_ue_distance_m or more from the BS.

    The positions and every generator's final position are those of drawing
    one candidate at a time.  Each round draws one block of candidates per
    drop still short of UEs, sized from the acceptance ratio with a margin
    for the largest number missing, and tests all the blocks at once; a
    drop whose block falls short goes on to the next round.  A drop that is
    placed is rewound past its unused candidates with
    bit_generator.advance, so the generators must be PCG64-backed (numpy's
    default_rng).  ValueError if a UE meets _MAX_PLACEMENT_ATTEMPTS
    consecutive rejections; misses after the last needed hit do not count.
    """
    r, d_min = params.cell_radius_m, params.min_bs_ue_distance_m
    users = params.num_ul + params.num_dl
    # Hexagon minus the excluded disc, over the square; ScenarioParams keeps the
    # disc inside the apothem, so this is at least 6%.
    accept = (1.5 * math.sqrt(3) * r * r - math.pi * d_min * d_min) / (4 * r * r)
    pts = np.empty((len(rngs), users, 2))
    placed = np.zeros(len(rngs), dtype=np.intp)   # UEs placed so far, per drop
    misses = np.zeros(len(rngs), dtype=np.intp)   # rejections since each drop's last hit
    short = np.arange(len(rngs) if users else 0)  # the drops with UEs left to place
    while short.size:
        need = users - placed[short]
        most = int(need.max())
        # About three standard deviations of the hit count to spare.
        size = int((most + 3 * math.sqrt(most) + 3) / accept)
        cand = np.empty((short.size, size, 2))
        for block, b in zip(cand, short.tolist()):
            rngs[b].random(out=block)
        cand *= 2 * r   # rng.uniform(-r, r) bit for bit
        cand -= r
        # A matvec per candidate rounds bit for bit as `_HEX_NORMALS @ point`.
        inside = (np.abs(_HEX_NORMALS @ cand.reshape(-1, 2, 1))
                  <= r * math.sqrt(3) / 2).all(axis=(1, 2)).reshape(short.size, size)
        hit = inside & (np.hypot(cand[..., 0], cand[..., 1]) >= d_min)
        rank = hit.cumsum(axis=1)   # hits up to and including each candidate
        kept = hit & (rank <= need[:, None])
        rows, cols = np.nonzero(kept)
        pts[short[rows], placed[short[rows]] + rank[rows, cols] - 1] = cand[rows, cols]
        got = np.minimum(rank[:, -1], need)
        last = (rank >= got[:, None]).argmax(axis=1)   # each block's last kept hit
        trailing = np.where(got > 0, size - 1 - last, misses[short] + size)
        # No run of rejections since the last hit is longer than misses + size.
        for k in np.flatnonzero(misses[short] + size >= _MAX_PLACEMENT_ATTEMPTS):
            # Rejections before each hit, and after the last one while UEs remain.
            bounds = np.concatenate(([-1 - misses[short[k]]], np.flatnonzero(kept[k]), [size]))
            gaps = bounds[1:] - bounds[:-1] - 1
            if (gaps if got[k] < need[k] else gaps[:-1]).max() >= _MAX_PLACEMENT_ATTEMPTS:
                raise ValueError("could not place a UE inside the cell; check cell_radius_m "
                                 "against min_bs_ue_distance_m")
        done = got == need
        for b, unused in zip(short[done].tolist(), trailing[done].tolist()):
            rngs[b].bit_generator.advance(-2 * unused)   # two draws a candidate
        placed[short] += got
        misses[short] = trailing
        short = short[~done]
    return pts


def build_gain_table(params: ScenarioParams,
                     rngs: Sequence[np.random.Generator]) -> GainTable:
    """Generate one drop per generator of rngs, with all its linear path
    gains: one GainTable whose leading axis is the drops, in order.

    Each generator draws, in this order: its UE positions (_placed_users:
    blocks of candidates, then a rewind with bit_generator.advance past the
    last one used, so it must be PCG64-backed), then its UL links' LOS
    uniforms and shadowing normals, its DL links', and its cross links'
    (row-major over UL x DL).  So a drop's gains and its generator's end
    state do not depend on the batch it is made in, and a generator may
    make only one drop of a batch (ValueError otherwise).  The distances
    and the propagation law are evaluated over (drops, links) arrays, in
    blocks of about _BLOCK_LINKS links; the gains are (D, I), (D, J) and
    (D, I, J) views of one such array, and the positions of one
    (D, I + J, 2) array.
    """
    num_ul, num_dl = params.num_ul, params.num_dl
    users, drops = num_ul + num_dl, len(rngs)
    if len({id(rng) for rng in rngs}) < drops:
        raise ValueError("build_gain_table makes one drop per generator; a generator "
                         "appears twice in the batch")
    pts = _placed_users(params, rngs)
    links = users + num_ul * num_dl   # per drop: UL, DL, then cross links
    g = np.empty((drops, links))
    step = max(_BLOCK_LINKS // links, 1)
    for lo in range(0, drops, step):
        x, y = pts[lo:lo + step, :, 0], pts[lo:lo + step, :, 1]
        d = np.empty((len(x), links))
        np.hypot(x, y, out=d[:, :users])
        cross = d[:, users:].reshape(len(x), num_ul, num_dl)   # a view of d
        np.subtract(x[:, :num_ul, None], x[:, None, num_ul:], out=cross)
        np.hypot(cross, y[:, :num_ul, None] - y[:, None, num_ul:], out=cross)
        g[lo:lo + step] = link_gain(d, *draw_link_states(d, rngs[lo:lo + step],
                                                         (num_ul, num_dl, num_ul * num_dl)))
    return GainTable(g[:, :num_ul], g[:, num_ul:users],
                     g[:, users:].reshape(drops, num_ul, num_dl),
                     DropPositions(np.zeros((drops, 2)), pts[:, :num_ul], pts[:, num_ul:]))


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
