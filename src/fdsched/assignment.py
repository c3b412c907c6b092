"""Maximization linear assignment: the Hungarian solver and the reduction
that lets users stand alone.

hungarian_max solves a rectangular benefit matrix without padding it:
each line of the shorter side gets a distinct partner (Crouse, IEEE TAES
2016).  On a matrix with many spare columns the solver leaves out of its
scans every spare column that a lower-index spare column dominates, with
the same matching as the full scan.  assign_with_solo reduces pairing or
standing alone to one I-row rectangle, for one problem or for a stack of
them along a leading axis, and returns each problem's row of UL partners
(-1 for a user alone).  A stack of at least _LOCKSTEP_MIN_PROBLEMS
rectangles too narrow to prune is solved in lockstep by numpy, every
problem's tree steps in one round of array calls, with the scalar
solver's floats and tie-breaks and so its matchings; any other stack goes
through hungarian_max one matrix at a time.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

# A cost with fewer than this many entries beyond its square part,
# n * (m - n), keeps the full scan: below it, building the dominance table
# cost more than the pruned scan saved (ROADMAP item 9, "Ruled out").
_PRUNE_MIN_SPARE_ENTRIES = 256

# A stack of fewer problems than this goes to the scalar solver one matrix
# at a time: below it the lockstep rounds' fixed numpy cost outweighs the
# scalar loops they replace (measured break-even near 20 problems at
# 25 x 25; at 4 x 4 near 60 for the solve alone, and near 30 once the
# per-matrix calls it saves are counted).
_LOCKSTEP_MIN_PROBLEMS = 50


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


def _min_cost_assignments(benefits: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """_min_cost_assignment of every cost tops[b] - benefits[b] of a
    (B, n, m) stack, 1 <= n <= m, in lockstep: the (B, n) columns of each
    problem's rows.  A cost is computed a row at a time as the search reads
    it, so the stack's costs are never held whole.

    One round does, for every problem still searching, one tree step of the
    scalar solver as a few numpy calls over the stack: the scan of its
    unreached columns, the argmin and the potential update.  A problem
    whose step reaches an unmatched column augments its path and starts
    its next row in the next round while the others go on searching, so
    each problem inserts its rows at its own pace.  A round's paths are
    walked in plain Python and written back in one flat assignment.  A
    finished problem leaves the stack, which remakes its flat views.

    The floats are the scalar solver's: minv - shift on the unreached
    columns, reduced = cost - u - v, u += delta and v -= delta on the tree,
    and ties go to the lowest column (argmin).  A column that joins the
    tree gets minv = +inf and adds +inf to its reduced cost, so the scan
    and the argmin pass over it unmasked, and the masked updates multiply
    delta by a 0/1 mask.  Adding 0.0 or delta * 0.0 and applying a zero
    delta rather than skipping it change no value but the sign of a zero,
    so no decision.  tops[b] - benefits[b] is the scalar path's
    benefit.max() - benefit, entry by entry.  Nothing is pruned:
    _max_assignments sends wide costs to the scalar solver.
    """
    b, n, m = benefits.shape
    rows = benefits.reshape(b * n, m)
    matched = np.empty((b, n), dtype=np.intp)
    live = np.arange(b)                          # the problems still searching
    u = np.zeros((b, n))                         # row potentials
    v = np.zeros((b, m))                         # column potentials
    row_of_col = np.full((b, m + 1), -1)         # column m: the row being inserted
    row_of_col[:, m] = 0
    minv = np.full((b, m), math.inf)             # +inf on the tree's columns
    way = np.full((b, m), m)
    in_tree = np.zeros((b, m))                   # 1.0 on the tree's columns
    blocked = np.zeros((b, m))                   # +inf on the tree's columns
    tree_rows = np.zeros((b, n))                 # 1.0 on the tree's rows
    j0 = np.full(b, m)
    while live.size:                             # per stack: its invariants and flat views
        at = np.arange(live.size)
        at_n, at_m, at_root = at * n, at * m, at * (m + 1)
        first_row = live * n
        top = np.repeat(tops[live][:, None], m, axis=1)
        flat_cols, flat_u, flat_rows = row_of_col.ravel(), u.ravel(), tree_rows.ravel()
        flat_minv, flat_blocked, flat_in = minv.ravel(), blocked.ravel(), in_tree.ravel()
        while True:
            i0 = flat_cols[at_root + j0]
            at_row = at_n + i0
            flat_rows[at_row] = 1.0
            reduced = rows[first_row + i0]
            np.subtract(top, reduced, out=reduced)
            reduced -= flat_u[at_row][:, None]
            reduced -= v
            reduced += blocked
            way = np.where(reduced < minv, j0[:, None], way)
            np.minimum(minv, reduced, out=minv)
            j0 = minv.argmin(axis=1)
            picked = at_m + j0
            delta = flat_minv[picked][:, None]
            u += delta * tree_rows
            v -= delta * in_tree
            minv -= delta
            flat_minv[picked] = math.inf
            flat_blocked[picked] = math.inf
            flat_in[picked] = 1.0
            ends = np.flatnonzero(flat_cols[at_root + j0] < 0)
            if not ends.size:
                continue
            at_col, moved, done = [], [], []
            for e, w, r, j in zip(ends.tolist(), way[ends].tolist(),
                                  row_of_col[ends].tolist(), j0[ends].tolist()):
                while j != m:                    # augment along the tree path
                    at_col.append(e * (m + 1) + j)
                    j = w[j]
                    moved.append(r[j])
                at_col.append(e * (m + 1) + m)   # the next row starts at the root
                moved.append(r[m] + 1)
                if r[m] + 1 == n:
                    done.append(e)
            flat_cols[at_col] = moved
            j0[ends] = m
            minv[ends] = math.inf
            for a in (blocked, in_tree, tree_rows):
                a[ends] = 0.0
            if done:
                break
        rows_of = row_of_col[done, :m]
        k, cols = np.nonzero(rows_of >= 0)
        matched[live[done][k], rows_of[k, cols]] = cols
        keep = np.ones(live.size, dtype=bool)
        keep[done] = False
        live, j0 = live[keep], j0[keep]
        u = u[keep]                              # one state array at a time
        v = v[keep]
        row_of_col = row_of_col[keep]
        minv = minv[keep]
        way = way[keep]
        in_tree = in_tree[keep]
        blocked = blocked[keep]
        tree_rows = tree_rows[keep]
    return matched


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
    rows = sorted(assignment)
    return assignment, float(values[rows, [assignment[r] for r in rows]].sum())


def min_pairs(num_ul: int, num_dl: int, num_channels: int) -> int:
    """The fewest pairs that fit I UL and J DL users on F channels, I + J - F
    (or 0); ValueError if even pairing every user of the smaller side cannot."""
    forced = max(0, num_ul + num_dl - num_channels)
    if forced > min(num_ul, num_dl):
        raise ValueError(f"channel budget infeasible: {num_ul}+{num_dl} users on "
                         f"{num_channels} channels")
    return forced


def _max_assignments(rects: np.ndarray) -> np.ndarray:
    """The (B, n) column of each row of the maximum-total assignment of
    every n x m benefit matrix of a (B, n, m) stack, n <= m.

    A stack of at least _LOCKSTEP_MIN_PROBLEMS matrices too narrow to be
    pruned is solved in lockstep (_min_cost_assignments); any other goes
    through hungarian_max one matrix at a time.  Both pick the same
    matching.
    """
    count, n, m = rects.shape
    if count < _LOCKSTEP_MIN_PROBLEMS or n * (m - n) >= _PRUNE_MIN_SPARE_ENTRIES:
        return np.array([list(hungarian_max(rect)[0].values()) for rect in rects],
                        dtype=np.intp).reshape(count, n)
    if not np.all(np.isfinite(rects)):
        raise ValueError("assignment matrix has non-finite entries")
    return _min_cost_assignments(rects, rects.max(axis=(1, 2)))


def assign_with_solo(
    values: np.ndarray,
    solo_ul: np.ndarray,
    solo_dl: np.ndarray,
    num_channels: int,
):
    """Choose pairs or stand-alone users to maximize the separable benefit;
    returns partner_ul: partner_ul[i] is UL user i's DL partner, or -1
    where it stands alone.

    Pairing UL i with DL j scores values[i, j]; a user alone on a channel
    scores solo_ul[i] or solo_dl[j].  With P pairs the schedule occupies
    I + J - P channels, so at least P = I + J - num_channels pairs are
    forced (min_pairs).  Solved as an I x (J + I - P) rectangle: row i
    takes DL column j at values[i, j] - solo_dl[j] or one of I - P solo
    columns at solo_ul[i]; every schedule's total is its rectangle total
    plus solo_dl.sum().  With J = P every DL user pairs, so the shift would
    only add rounding and is skipped; with I = J = P the rectangle is
    values itself.

    A leading problem axis, (B, I, J) values with (B, I) and (B, J) solo
    rows, solves B problems of one cell in one _max_assignments call and
    returns their (B, I) partner rows.
    """
    stacked = values.ndim == 3
    shape = solo_ul.shape[:-1] + (solo_ul.shape[-1], solo_dl.shape[-1])
    if values.shape != shape or solo_dl.shape[:-1] != solo_ul.shape[:-1]:
        raise ValueError(f"benefit shape {values.shape} does not match {shape}")
    if not stacked:
        values, solo_ul, solo_dl = values[None], solo_ul[None], solo_dl[None]
    count, num_ul, num_dl = values.shape
    forced_pairs = min_pairs(num_ul, num_dl, num_channels)
    width = num_dl + num_ul - forced_pairs
    if num_ul == 0:
        partners = np.empty((count, 0), dtype=np.intp)
    else:
        if num_dl > forced_pairs:                # some DL user may stand alone
            rect = np.empty((count, num_ul, width))
            np.subtract(values, solo_dl[:, None, :], out=rect[..., :num_dl])
        elif width == num_dl:
            rect = np.asarray(values, dtype=float)
        else:
            rect = np.empty((count, num_ul, width))
            rect[..., :num_dl] = values
        rect[..., num_dl:] = solo_ul[..., None]
        partners = _max_assignments(rect)
        partners[partners >= num_dl] = -1
    return partners if stacked else partners[0]
