"""Span recording around fdsched's module boundaries, and its analysis.

Recording (used in the traced child): ``install`` replaces the names that
callers look up at call time with timing wrappers, so nothing under
``src/`` changes.  Each span holds name, layer, tag, start, end, parent
and drop id; spans stay in memory until the run ends.  A target name that
no longer exists is reported as absent and skipped, so a refactor loses
one layer's numbers, never the run.

The tracer's clock can be paused.  Work the benchmark itself does inside a
run (the assignment oracle) is timed on no span and shifts every later
timestamp back, so no span, the root included, contains it.

Analysis (used by the parent, standard library only): self time, layer
shares, nearest-rank percentiles and the tail rule.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import NamedTuple

# (module looked up in, attribute, layer that owns the function).  The
# layer is the module that defines the function, which for jain_index is
# metrics even though radio is where it is looked up.
TARGETS = (
    ("harness", "build_gain_table", "scenario"),
    ("harness", "solve", "solvers"),
    ("solvers", "make_weights", "radio"),
    ("solvers", "corner_tables", "radio"),
    ("solvers", "outcome_metrics", "radio"),
    ("solvers", "assign_with_solo", "assignment"),
    ("assignment", "hungarian_max", "assignment"),
    ("radio", "jain_index", "metrics"),
    ("metrics", "empirical_cdf", "metrics"),
    ("metrics", "percentile", "metrics"),
)

LAYERS = ("scenario", "radio", "assignment", "solvers", "metrics", "harness")
STRATEGIES = ("P-OPT", "C-HUN", "C-NINT", "R-EPA")
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Span(NamedTuple):
    name: str
    layer: str
    tag: object
    start: int
    end: int
    parent: int | None
    drop: int


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._paused_ns = 0
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.drop = -1
        self.oracle: list[tuple[int, bool]] = []   # (matrix size, optimal)

    def now(self) -> int:
        return self._clock() - self._paused_ns

    def begin(self, name: str, layer: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, tag, self.now(), -1, parent, self.drop))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx] = self.spans[idx]._replace(end=self.now())

    @contextmanager
    def span(self, name: str, layer: str, tag=None):
        idx = self.begin(name, layer, tag)
        try:
            yield
        finally:
            self.end(idx)

    @contextmanager
    def paused(self):
        """Time spent inside is removed from every span."""
        started = self._clock()
        try:
            yield
        finally:
            self._paused_ns += self._clock() - started


def _wrap(tracer: Tracer, fn, name: str, layer: str, oracle):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tag = None
        if name == "build_gain_table":
            tracer.drop += 1
        elif name == "solve":
            tag = args[0] if args else kwargs.get("name")
        idx = tracer.begin(name, layer, tag)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if name == "hungarian_max" and oracle is not None:
            with tracer.paused():
                values = args[0] if args else kwargs["values"]
                tracer.oracle.append(oracle(values, result[1]))
        return result
    return wrapper


def install(tracer: Tracer, modules: dict, oracle=None):
    """Wrap every target found in ``modules`` (short name -> module).

    ``oracle(values, reported_total) -> (size, optimal)`` is called after
    each hungarian_max span closes, with the tracer's clock paused.
    Returns (restore, absent): calling restore puts the original functions
    back; absent lists the "module.attr" targets that could not be wrapped.
    """
    saved = []
    absent = []
    for module_name, attr, layer in TARGETS:
        module = modules.get(module_name)
        fn = getattr(module, attr, None) if module is not None else None
        if not callable(fn):
            absent.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, fn, attr, layer, oracle))

    def restore():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
    return restore, absent


def from_rows(rows) -> list[Span]:
    """Spans back from their JSON form, a list of arrays in field order."""
    return [Span(*row) for row in rows]


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_self_times(spans) -> dict[str, int]:
    totals = dict.fromkeys(LAYERS, 0)
    for s, own in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0) + own
    return totals


def nearest_rank(sorted_values, q) -> float:
    """Smallest sample whose empirical CDF reaches q/100."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = max(1, math.ceil(Fraction(str(q)) * n / 100))
    return sorted_values[rank - 1]


def tail(values) -> tuple[float, float]:
    """(q, value) for the highest ladder percentile with at least ten
    samples beyond it.  Below 20 samples no percentile qualifies and the
    median is returned with q = 50."""
    ordered = sorted(values)
    n = len(ordered)
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - math.ceil(Fraction(str(q)) * n / 100) >= TAIL_MIN_BEYOND:
            best = q
    return best, nearest_rank(ordered, best)


def median(values) -> float:
    return nearest_rank(sorted(values), 50)


def drop_durations(spans) -> list[int]:
    """Per drop: from its build_gain_table start to the end of its last solve."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for s in spans:
        if s.name == "build_gain_table":
            first[s.drop] = s.start
        elif s.name == "solve" and s.drop in first:
            last[s.drop] = max(last.get(s.drop, s.end), s.end)
    return [last[d] - first[d] for d in sorted(last)]


def _timing(prefix: str, durations_ns, out: dict, tails: dict) -> None:
    ms = [d / 1e6 for d in durations_ns]
    tails[prefix], out[f"{prefix}.ms_tail"] = tail(ms)
    out[f"{prefix}.ms_p50"] = median(ms)
    out[f"{prefix}.n"] = len(ms)


def layer_metrics(runs) -> tuple[dict, dict]:
    """Per-layer metrics from one or more traced runs of the same workload.

    ``runs`` is a list of dicts with keys spans (list of Span, the root
    span first) and oracle (list of (size, optimal)).  Span
    durations are pooled over runs; counts come from the first run, and
    shares and harness self time are medians over runs.  Returns (metrics,
    the percentile each ms_tail was taken at).
    """
    out: dict = {}
    tails: dict = {}
    pooled = defaultdict(list)
    drops = []
    shares = defaultdict(list)
    harness_self = []
    for run in runs:
        run_spans = run["spans"]
        for s in run_spans:
            key = f"{s.layer}.{s.name}"
            if s.name == "solve":
                key = f"{key}.{s.tag}"
            pooled[key].append(s.end - s.start)
        drops.extend(drop_durations(run_spans))
        root_ns = run_spans[0].end - run_spans[0].start
        own = layer_self_times(run_spans)
        for layer in LAYERS:
            shares[layer].append(own[layer] / root_ns if root_ns else 0.0)
        harness_self.append(own["harness"] / 1e9)
    counts = defaultdict(int)
    for s in runs[0]["spans"]:
        counts[f"{s.layer}.{s.name}"] += 1
    oracle = [result for run in runs for result in run["oracle"]]

    out["scenario.build_gain_table.calls"] = counts["scenario.build_gain_table"]
    _timing("scenario.build_gain_table", pooled["scenario.build_gain_table"], out, tails)
    out["assignment.hungarian_max.calls"] = counts["assignment.hungarian_max"]
    _timing("assignment.hungarian_max", pooled["assignment.hungarian_max"], out, tails)
    out["assignment.hungarian_max.size_p50"] = median([size for size, _ in oracle])
    out["assignment.optimal_frac"] = (
        sum(ok for _, ok in oracle) / len(oracle) if oracle else 1.0)
    for strategy in STRATEGIES:
        _timing(f"solvers.solve.{strategy}", pooled[f"solvers.solve.{strategy}"], out, tails)
    for name in ("make_weights", "corner_tables", "outcome_metrics"):
        out[f"radio.{name}.ms_p50"] = median([d / 1e6 for d in pooled[f"radio.{name}"]])
    for layer in LAYERS:
        out[f"{layer}.self_share"] = median(shares[layer])
    out["harness.self_s"] = median(harness_self)
    _timing("drop", drops, out, tails)
    return out, tails
