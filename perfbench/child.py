"""One fdsched experiment in a fresh interpreter, timed from the outside in.

Run by ``run.py``, never by hand: ``python3 perfbench/child.py '<spec>'``
where spec is a JSON object with keys workload, seed, out_dir,
parallelism, trace, setup_only, spawn_ns and report.  The child imports
fdsched from ``src/``, builds and validates the workload's config, runs
``harness.run_experiment`` once and writes its measurements to the
``report`` path as JSON.

setup_s runs from ``spawn_ns`` (CLOCK_MONOTONIC, read by the parent just
before it started this process) to the validated config, so it covers
interpreter start, the numpy and fdsched imports and the config build.
With ``trace`` set, timing wrappers are installed after set-up and every
assignment is re-solved by scipy with the span clock paused.

Around the run the child times a fixed calibration kernel four times
before and four times after (``calib_s``).  The parent divides by it to
express times at a reference machine speed, which removes most of the
shared host's speed swings from the end-to-end metrics.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
CALIB_REPEATS = 4


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _calibration_s() -> float:
    """Seconds for a fixed mix of small numpy operations in a Python loop,
    plain interpreter work and JSON encoding, the three kinds of work the
    workloads do.  It uses no fdsched code, so a change to the program
    cannot move it."""
    import numpy as np

    a = np.random.default_rng(0).random((96, 96))
    used = np.zeros(96, dtype=bool)
    low = np.full(96, np.inf)
    started = time.perf_counter()
    for i in range(1500):
        reduced = a[i % 96] - low[i % 7]
        better = ~used & (reduced < low)
        low[better] = reduced[better]
        slack = np.where(used, np.inf, low)
        j = int(np.argmin(slack))
        used[j] = not used[j]
        if i % 96 == 95:
            low[:] = np.inf
    x = 0
    table = {}
    for i in range(60000):
        x = (x * 31 + i) % 1000003
        table[i & 255] = x
    json.dumps([float(v) for v in a[:20].ravel()])
    return time.perf_counter() - started


def _assignment_oracle(values, reported_total):
    """(size, optimal): does hungarian_max's total match scipy's optimum
    on the same zero-padded square, within relative 1e-9?"""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    n = max(rows, cols)
    square = np.zeros((n, n))
    square[:rows, :cols] = values
    r, c = linear_sum_assignment(square, maximize=True)
    best = float(square[r, c].sum())
    return n, math.isclose(best, reported_total, rel_tol=1e-9, abs_tol=1e-300)


def main(spec: dict) -> None:
    from fdsched import harness

    import workloads
    workload = workloads.WORKLOADS[spec["workload"]]
    cfg = workloads.build_config(harness, workload, spec["seed"], spec["out_dir"],
                                 spec["parallelism"])
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    report = {"setup_s": (ready_ns - spec["spawn_ns"]) / 1e9}
    if spec["setup_only"]:
        Path(spec["report"]).write_text(json.dumps(report))
        return

    tracer = restore = None
    if spec["trace"]:
        import importlib

        import scipy.optimize  # noqa: F401  imported before timing starts

        import spans
        modules = {}
        for name in ("harness", "solvers", "assignment", "radio", "metrics"):
            try:
                modules[name] = importlib.import_module(f"fdsched.{name}")
            except ImportError:
                pass
        tracer = spans.Tracer()
        restore, report["absent"] = spans.install(tracer, modules, _assignment_oracle)

    calib = [_calibration_s() for _ in range(CALIB_REPEATS)]
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    if tracer is None:
        harness.run_experiment(cfg)
    else:
        try:
            with tracer.span("run_experiment", "harness"):
                harness.run_experiment(cfg)
        finally:
            restore()
    wall = time.perf_counter() - started
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    calib += [_calibration_s() for _ in range(CALIB_REPEATS)]

    report.update({
        "calib_s": calib,
        "wall_s": wall,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    })
    if tracer is not None:
        report["spans"] = tracer.spans
        report["oracle"] = tracer.oracle
    Path(spec["report"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
