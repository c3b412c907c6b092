"""Maximization linear assignment: the Hungarian solver and the reduction
that lets users stand alone.

hungarian_max pads its input with zero-benefit dummy cells to a square
matrix, finds a maximum-total perfect matching on that square, and reports
only the assignments inside the original matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Pairing


def _padded_square(values: np.ndarray) -> np.ndarray:
    rows, cols = values.shape
    n = max(rows, cols)
    padded = np.zeros((n, n))
    padded[:rows, :cols] = values
    return padded


def _selected_total(values: np.ndarray, assignment: dict[int, int]) -> float:
    rows = sorted(assignment)
    cols = [assignment[r] for r in rows]
    return float(values[rows, cols].sum()) if rows else 0.0


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """Exact minimum-cost perfect matching on a square cost matrix.

    Augmenting-path Hungarian with row/column potentials, O(n^3).  One row
    is inserted per outer iteration; the inner search grows an alternating
    tree over columns, tracking for every unreached column the smallest
    reduced slack (minv) and its tree attachment point (way).  Column n is
    a virtual root holding the row currently being inserted.

    Scalar Python over the matrix rows: at these sizes a per-element loop
    beats a handful of tiny numpy calls per tree step.  The unreached
    columns are scanned in index order, so ties go to the lowest column,
    and the previous step's slack shift (minv -= delta) is applied inside
    the next scan.  Every floating-point operation is the one the
    vectorized numpy form (kept in tests/test_assignment.py as an oracle)
    performs, in the same order, so both pick the same matching.
    """
    n = cost.shape[0]
    rows = cost.tolist()
    u = [0.0] * n                                # row potentials
    v = [0.0] * (n + 1)                          # column potentials
    row_of_col = [-1] * (n + 1)
    for i in range(n):
        row_of_col[n] = i
        j0 = n
        minv = [math.inf] * n
        way = [n] * n
        free = list(range(n))                    # unreached columns, in order
        used = [n]                               # columns in the tree
        shift = 0.0
        while True:
            i0 = row_of_col[j0]
            row = rows[i0]
            ui = u[i0]
            delta = math.inf
            j1 = -1
            for j in free:
                m = minv[j] - shift
                reduced = row[j] - ui - v[j]
                if reduced < m:
                    m = reduced
                    way[j] = j0
                minv[j] = m
                if m < delta:
                    delta = m
                    j1 = j
            for j in used:
                u[row_of_col[j]] += delta
                v[j] -= delta
            shift = delta
            free.remove(j1)
            j0 = j1
            if row_of_col[j0] < 0:
                break
            used.append(j0)
        while j0 != n:                           # augment along the tree path
            j_prev = way[j0]
            row_of_col[j0] = row_of_col[j_prev]
            j0 = j_prev
    col_of_row = [0] * n
    for j in range(n):
        col_of_row[row_of_col[j]] = j
    return col_of_row


def hungarian_max(values) -> tuple[dict[int, int], float]:
    """Maximum-total assignment of a rectangular benefit matrix.

    Returns (row -> column map over the original matrix, total benefit of
    the selected entries).  Reduction to the classical minimization form:
    pad to a square with zeros, then cost = max - benefit.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError("assignment needs a nonempty 2-D matrix")
    if not np.all(np.isfinite(values)):
        raise ValueError("assignment matrix has non-finite entries")
    rows, cols = values.shape
    padded = _padded_square(values)
    col_of_row = _min_cost_assignment(padded.max() - padded)
    assignment = {r: col_of_row[r] for r in range(rows) if col_of_row[r] < cols}
    return assignment, _selected_total(values, assignment)


def assign_with_solo(
    values: np.ndarray,
    solo_ul: np.ndarray,
    solo_dl: np.ndarray,
    num_channels: int | None = None,
) -> tuple[Pairing, float]:
    """Choose pairs or stand-alone users to maximize the separable benefit.

    Builds a square problem where matching UL i with DL j scores
    values[i, j] and matching a user with a dummy partner scores its solo
    contribution, solo_ul[i] or solo_dl[j].  The number of dummy partners
    is limited by the channel budget: with P pairs the schedule occupies
    I + J - P channels, so at least I + J - num_channels pairs are forced.
    With num_channels None the budget is treated as unlimited.
    """
    num_ul, num_dl = len(solo_ul), len(solo_dl)
    if values.shape != (num_ul, num_dl):
        raise ValueError(f"benefit shape {values.shape} does not match ({num_ul}, {num_dl})")
    forced_pairs = 0
    if num_channels is not None:
        forced_pairs = max(0, num_ul + num_dl - num_channels)
        if forced_pairs > min(num_ul, num_dl):
            raise ValueError(
                f"channel budget infeasible: {num_ul}+{num_dl} users on "
                f"{num_channels} channels")

    size = num_ul + num_dl - forced_pairs
    square = np.zeros((size, size))
    square[:num_ul, :num_dl] = values
    square[:num_ul, num_dl:] = solo_ul[:, None]
    square[num_ul:, :num_dl] = solo_dl[None, :]

    mapping, total = hungarian_max(square)
    pairs = [(r, c) for r, c in mapping.items() if r < num_ul and c < num_dl]
    return Pairing.from_pairs(pairs, num_ul, num_dl), total
