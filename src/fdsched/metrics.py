"""Aggregate statistics across Monte Carlo drops: Jain's fairness index,
empirical CDFs and nearest-rank percentiles, of one series or of many
columns at once.  Statistics only: harness spells the CDF files."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


def jain_index(se):
    """Jain's fairness index (sum x)^2 / (n sum x^2) over per-user SEs: a
    float for one vector, an (S,) array for the rows of an (S, n) matrix.

    Ranges from 1/n (one user gets everything) to 1 (perfect equality).
    An all-zero vector is treated as perfectly fair: it gives 1 and warns.
    Each row's floats are one vector's: its sum is squared by float ** 2
    (libm pow; numpy's array ** 2 is x * x, an ulp off on some rows) and
    x . x is a batched matmul, which is the vector @ of every row.
    """
    x = np.asarray(se, dtype=float)
    if x.size == 0:
        raise ValueError("jain_index needs a nonempty vector")
    if np.any(x < 0):
        raise ValueError("jain_index needs nonnegative entries")
    rows = x.reshape(-1, x.shape[-1])
    denom = rows.shape[1] * np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
    fair = denom == 0.0
    if fair.any():
        warnings.warn("jain_index of an all-zero vector, returning 1.0", stacklevel=2)
    squares = np.array([s ** 2 for s in rows.sum(axis=1).tolist()])
    jain = np.divide(squares, denom, out=np.ones(len(rows)), where=~fair)
    return float(jain[0]) if x.ndim == 1 else jain.reshape(x.shape[:-1])


@dataclass(frozen=True)
class CdfSeries:
    """Empirical CDF: values sorted along their first axis (one series, or
    one per column) with probabilities k/N."""

    values: np.ndarray
    probabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def empirical_cdf(samples) -> CdfSeries:
    """The CDF of samples along their first axis: (N,) samples give one
    series, (N, ...) samples one per column, each column sorted as np.sort
    sorts it alone.  ValueError without samples."""
    v = np.sort(np.asarray(samples, dtype=float), axis=0)
    if len(v) == 0:
        raise ValueError("empirical CDF needs at least one sample")
    return CdfSeries(values=v, probabilities=np.arange(1, len(v) + 1) / len(v))


def percentile(cdf: CdfSeries, q: float):
    """Nearest-rank percentile: smallest sample with CDF >= q/100, a float
    for one series and a row of one per column for columns.

    q=0 returns the minimum sample, q=100 the maximum; no interpolation.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must lie in [0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(cdf)))
    row = cdf.values[rank - 1]
    return float(row) if row.ndim == 0 else row
