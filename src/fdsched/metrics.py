"""Aggregate statistics across Monte Carlo drops: Jain's fairness index,
empirical CDFs and nearest-rank percentiles."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

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
    """Empirical CDF of one metric: sorted values with probabilities k/N."""

    values: np.ndarray
    probabilities: np.ndarray
    metric: str = ""
    strategy: str = ""
    mu: float = math.nan
    weight_mode: str = ""

    def __len__(self) -> int:
        return self.values.size

    # CSV layout: one metadata comment line (metric, strategy, mu,
    # weight_mode), a column header, then value,probability rows.  Floats
    # use repr so files are byte-reproducible.
    def to_csv_lines(self, formatted: dict | None = None) -> list[str]:
        """The CSV lines.  formatted, when the series of one output stage
        share it, keeps the spellings of each probability column, and the
        rows of each (value, probability) column pair from its second use
        on, keyed by dtype and bytes: a column is spelled once or twice, and
        the rows of a column used once are not held."""
        formatted = {} if formatted is None else formatted
        probabilities = self.probabilities.dtype.str, self.probabilities.tobytes()
        key = self.values.dtype.str, self.values.tobytes(), probabilities
        rows = formatted.get(key)
        if rows is None:
            spelled = formatted.get(probabilities)
            if spelled is None:
                spelled = formatted[probabilities] = list(map(repr, self.probabilities.tolist()))
            rows = [f"{v!r},{p}" for v, p in zip(self.values.tolist(), spelled)]
            formatted[key] = rows if key in formatted else None
        return [f"# {self.metric},{self.strategy},{float(self.mu)!r},{self.weight_mode}",
                "value,probability", *rows]

    def write_csv(self, path, formatted: dict | None = None) -> None:
        Path(path).write_text("\n".join(self.to_csv_lines(formatted)) + "\n")


def empirical_cdf(samples, metric="", strategy="", mu=math.nan,
                  weight_mode="") -> CdfSeries:
    """The CDF of samples, labelled with its combination: the sorted
    samples with probabilities k/N.  ValueError without samples."""
    v = np.sort(np.asarray(samples, dtype=float))
    if v.size == 0:
        raise ValueError("empirical CDF needs at least one sample")
    return CdfSeries(values=v, probabilities=np.arange(1, v.size + 1) / v.size,
                     metric=metric, strategy=strategy, mu=mu, weight_mode=weight_mode)


def percentile(cdf: CdfSeries, q: float) -> float:
    """Nearest-rank percentile: smallest sample with CDF >= q/100.

    q=0 returns the minimum sample, q=100 the maximum; no interpolation.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must lie in [0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(cdf)))
    return float(cdf.values[rank - 1])
