"""Maximization linear assignment: the Hungarian solver and the reduction
that lets users stand alone.

hungarian_max solves a rectangular benefit matrix without padding it:
each line of the shorter side gets a distinct partner (Crouse, IEEE TAES
2016).  On a matrix with many spare columns the solver leaves out of its
scans every spare column that a lower-index spare column dominates, with
the same matching as the full scan.  assign_with_solo reduces pairing or
standing alone to one I-row rectangle.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .model import Pairing

# A cost with fewer than this many entries beyond its square part,
# n * (m - n), keeps the full scan: below it, building the dominance table
# cost more than the pruned scan saved (ROADMAP item 6, "Cost vs cell size").
_PRUNE_MIN_SPARE_ENTRIES = 256


def _selected_total(values: np.ndarray, assignment: dict[int, int]) -> float:
    rows = sorted(assignment)
    cols = [assignment[r] for r in rows]
    return float(values[rows, cols].sum()) if rows else 0.0


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Exact minimum-cost assignment of the rows of an n x m cost, n <= m.

    Augmenting-path Hungarian with row/column potentials, O(n^2 m).  One
    row is inserted per outer iteration; the inner search grows an
    alternating tree over columns, tracking for every unreached column the
    smallest reduced slack (minv) and its tree attachment point (way).
    Column m is a virtual root holding the row currently being inserted.

    Scalar Python over the matrix rows: at these sizes a per-element loop beats
    a handful of tiny numpy calls per tree step.  The unreached columns are
    scanned in index order, so ties go to the lowest column, and the previous
    step's slack shift (minv -= delta) is applied inside the next scan.  Ties
    make most steps zero-slack (delta 0.0): such a step skips the tree update
    (u += delta, v -= delta) and the next scan skips minv - shift.  Neither
    changes a value: x - 0.0 == x but -0.0 turns +0.0, which no comparison
    sees, and u and v start at +0.0 and never become -0.0.  Every other
    floating-point operation is the one the vectorized numpy oracle in
    tests/test_assignment.py performs, in the same order, so both agree.

    A wide cost with n * (m - n) >= _PRUNE_MIN_SPARE_ENTRIES leaves out of
    each scan every unmatched column that an unmatched lower-index column
    dominates (is <= in every row); the solo columns assign_with_solo
    builds are copies or shifted copies of one another.  Leaving them out
    changes nothing:
    - an unmatched column never joins the tree (picking one ends the
      insertion), so its potential stays +0.0 for the whole solve, and a
      matched column stays matched;
    - for unmatched columns a < b with cost[:, a] <= cost[:, b], every
      reduced cost and every minv of a is <= b's, because IEEE subtraction
      is monotone, and ties go to the lower index, so b is never picked as
      j1 while a is unmatched;
    - so leaving b out changes no delta, no j1 and no potential; its minv
      and way are never read, and both are reset at the next insertion.
    Each insertion scans the sorted `active` list: every matched column
    and every unmatched one without an unmatched dominator.  A column
    matched for good releases the columns it dominated, once it was their
    last unmatched dominator.  A smaller or square cost keeps the full
    scan: its solve is too short to repay the table, and on a square one
    every column ends up matched, so few stay pruned for long.
    """
    n, m = cost.shape
    rows = cost.tolist()
    u = [0.0] * n                                # row potentials
    v = [0.0] * (m + 1)                          # column potentials
    row_of_col = [-1] * (m + 1)
    prune = n * (m - n) >= _PRUNE_MIN_SPARE_ENTRIES
    if prune:
        below = np.triu(np.ones((m, m), dtype=bool), 1)   # below[a, b]: a dominates b
        for r in cost:
            below &= r[:, None] <= r
        blockers = below.sum(axis=0).tolist()    # unmatched dominators per column
        active = [j for j in range(m) if not blockers[j]]
    else:
        active = list(range(m))
    for i in range(n):
        row_of_col[m] = i
        j0 = m
        minv = [math.inf] * m
        way = [m] * m
        free = active.copy()                     # unreached columns, in order
        used = [m]                               # columns in the tree
        shift = 0.0
        while True:
            i0 = row_of_col[j0]
            row = rows[i0]
            ui = u[i0]
            delta = math.inf
            j1 = -1
            if shift:
                for j in free:
                    mj = minv[j] - shift
                    reduced = row[j] - ui - v[j]
                    if reduced < mj:
                        mj = reduced
                        way[j] = j0
                    minv[j] = mj
                    if mj < delta:
                        delta = mj
                        j1 = j
            else:                                # zero shift: minv stands
                for j in free:
                    mj = minv[j]
                    reduced = row[j] - ui - v[j]
                    if reduced < mj:
                        minv[j] = mj = reduced
                        way[j] = j0
                    if mj < delta:
                        delta = mj
                        j1 = j
            if delta:                            # zero delta: potentials stand
                for j in used:
                    u[row_of_col[j]] += delta
                    v[j] -= delta
            shift = delta
            free.remove(j1)
            j0 = j1
            if row_of_col[j0] < 0:
                break
            used.append(j0)
        if prune:                                # j0 is matched for good
            for j in np.flatnonzero(below[j0]).tolist():
                blockers[j] -= 1
                if not blockers[j]:
                    bisect.insort(active, j)
        while j0 != m:                           # augment along the tree path
            j_prev = way[j0]
            row_of_col[j0] = row_of_col[j_prev]
            j0 = j_prev
    col_of_row = [0] * n
    for j in range(m):
        if row_of_col[j] >= 0:
            col_of_row[row_of_col[j]] = j
    return col_of_row


def hungarian_max(values) -> tuple[dict[int, int], float]:
    """Maximum-total assignment of a rectangular benefit matrix.

    Returns (row -> column map, total benefit of the selected entries).
    Every line of the shorter side is assigned, as on the zero-padded
    square.  Solves cost = max - benefit, on the transpose if rows > cols.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("assignment needs a nonempty 2-D matrix")
    if not np.all(np.isfinite(values)):
        raise ValueError("assignment matrix has non-finite entries")
    flip = values.shape[0] > values.shape[1]
    benefit = values.T if flip else values
    matched = _min_cost_assignment(benefit.max() - benefit)
    if flip:                                     # matched[c] is column c's row
        assignment = {r: c for c, r in enumerate(matched)}
    else:
        assignment = dict(enumerate(matched))
    return assignment, _selected_total(values, assignment)


def min_pairs(num_ul: int, num_dl: int, num_channels: int) -> int:
    """The fewest pairs that fit I UL and J DL users on F channels, I + J - F
    (or 0); ValueError if even pairing every user of the smaller side cannot."""
    forced = max(0, num_ul + num_dl - num_channels)
    if forced > min(num_ul, num_dl):
        raise ValueError(f"channel budget infeasible: {num_ul}+{num_dl} users on "
                         f"{num_channels} channels")
    return forced


def assign_with_solo(
    values: np.ndarray,
    solo_ul: np.ndarray,
    solo_dl: np.ndarray,
    num_channels: int,
) -> tuple[Pairing, float]:
    """Choose pairs or stand-alone users to maximize the separable benefit.

    Pairing UL i with DL j scores values[i, j]; a user alone on a channel
    scores solo_ul[i] or solo_dl[j].  With P pairs the schedule occupies
    I + J - P channels, so at least P = I + J - num_channels pairs are
    forced (min_pairs).  Solved as an I x (J + I - P) rectangle: row i
    takes DL column j at values[i, j] - solo_dl[j] or one of I - P solo
    columns at solo_ul[i], and solo_dl.sum() is added back.  With J = P
    every DL user pairs, so the shift would only add rounding and is
    skipped.
    """
    num_ul, num_dl = len(solo_ul), len(solo_dl)
    if values.shape != (num_ul, num_dl):
        raise ValueError(f"benefit shape {values.shape} does not match ({num_ul}, {num_dl})")
    forced_pairs = min_pairs(num_ul, num_dl, num_channels)
    if num_ul == 0:
        return Pairing.from_pairs([], 0, num_dl), float(solo_dl.sum())

    shift = solo_dl if num_dl > forced_pairs else np.zeros(num_dl)
    rect = np.empty((num_ul, num_dl + num_ul - forced_pairs))
    rect[:, :num_dl] = values - shift
    rect[:, num_dl:] = solo_ul[:, None]

    mapping, total = hungarian_max(rect)
    pairs = [(r, c) for r, c in mapping.items() if c < num_dl]
    return Pairing.from_pairs(pairs, num_ul, num_dl), total + float(shift.sum())
