"""fdsched benchmark entry point.

    python3 perfbench/run.py --workload fig3-p1 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each measured run of the workload is a fresh
child interpreter (``child.py``) that imports fdsched from ``src/`` and calls
``harness.run_experiment`` once, the way one CLI invocation would.  Children
are started one after another until ``--seconds`` have passed, after one
untimed warm-up child that only compiles bytecode and imports.

--trace 0  end-to-end metrics, tracing off: medians over the children of
           drops_per_s, cpu_ms_per_drop, setup_s and peak_rss_mb.  The
           three time metrics are given at a reference machine speed: each
           child's times are divided by its calibration kernel time over
           CALIB_REF_S.
--trace 1  per-layer metrics: repeated rounds of one untraced child at the
           workload's parallelism, one untraced serial child (parallel
           workloads only) and one traced serial child.

Every child's output directory goes through the output checks, and all
children of one invocation must write byte-identical outputs.  The last
line of stdout is the result object; the line before it is a report with
metadata, sample counts, quartiles, digests and check messages, which is
also written to ``.bench_out/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks as checks_mod
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_CHILDREN = 3
# No new child starts after STOP_S of measuring, whatever the minimum count,
# and every child is killed at DEADLINE_S after start-up, so one invocation
# ends within three minutes even on a program that got much slower.
STOP_S = 110
DEADLINE_S = 170

# Calibration kernel time (child.py) that defines the reference machine
# speed: about its median on the 2-vCPU Xeon VM the baseline was taken on.
CALIB_REF_S = 0.025

E2E_UNITS = {"drops_per_s": "1/s", "cpu_ms_per_drop": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def _kill(proc: subprocess.Popen) -> None:
    """Kill the child and its pool workers (one session) and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _run_child(spec: dict, report_path: Path, deadline: float) -> dict:
    spec = dict(spec, report=str(report_path),
                spawn_ns=time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise ChildFailed("child still running at the invocation's deadline") from None
    except BaseException:   # interrupted or terminated: take the child down too
        _kill(proc)
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode}:\n"
                          f"{err.decode(errors='replace')[-2000:]}")
    return json.loads(report_path.read_text())


def _slowdown(child: dict) -> float:
    """How much slower than the reference speed the machine ran this child.

    The mean, not the median: the host's speed flips within a second, and
    the run in between sees the average of the calibrations around it."""
    return sum(child["calib_s"]) / len(child["calib_s"]) / CALIB_REF_S


def _quartiles(values: list[float]) -> list[float]:
    ordered = sorted(values)
    return [spans.nearest_rank(ordered, q) for q in (25, 50, 75)]


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_revision() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Session:
    """One benchmark invocation: its children, their outputs and checks."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.count = 0
        self.checks = checks_mod.Checks()
        self.reference: dict | None = None   # digests of the first child's outputs
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, parallelism: int, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        run_dir = self.work / f"run{self.count:03d}"
        spec = {"workload": self.workload.name, "seed": self.seed,
                "out_dir": str(run_dir), "parallelism": parallelism,
                "trace": trace, "setup_only": setup_only}
        result = _run_child(spec, self.work / f"run{self.count:03d}.json", self.deadline)
        if not setup_only:
            self._check_outputs(run_dir, f"run{self.count:03d} (p{parallelism}"
                                         f"{', traced' if trace else ''})")
            shutil.rmtree(run_dir)
        return result

    def _check_outputs(self, run_dir: Path, label: str) -> None:
        self.checks.merge(checks_mod.check_run(run_dir, self.workload))
        found = checks_mod.digests(run_dir)
        if self.reference is None:
            self.reference = found
        else:
            self.checks.check(found == self.reference,
                              f"{label}: outputs differ from the first run's")


def measure_e2e(session: Session, seconds: float) -> tuple[dict, dict]:
    w = session.workload
    samples = {name: [] for name in E2E_UNITS}
    raw = {name: [] for name in E2E_UNITS}
    slowdowns = []
    started = time.monotonic()
    while (time.monotonic() - started < seconds
           or len(slowdowns) < MIN_CHILDREN) \
            and time.monotonic() - started < STOP_S:
        r = session.child(w.parallelism)
        measured = {"drops_per_s": w.drops / r["wall_s"],
                    "cpu_ms_per_drop": 1000.0 * r["cpu_s"] / w.drops,
                    "setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"]}
        slow = _slowdown(r)
        slowdowns.append(slow)
        for name, value in measured.items():
            raw[name].append(value)
        samples["drops_per_s"].append(measured["drops_per_s"] * slow)
        samples["cpu_ms_per_drop"].append(measured["cpu_ms_per_drop"] / slow)
        samples["setup_s"].append(measured["setup_s"] / slow)
        samples["peak_rss_mb"].append(measured["peak_rss_mb"])
    metrics = {name: {"value": spans.median(values), "unit": E2E_UNITS[name]}
               for name, values in samples.items()}
    detail = {"runs": len(slowdowns),
              "quartiles": {name: _quartiles(v) for name, v in samples.items()},
              "samples": samples,
              "raw_medians": {name: spans.median(v) for name, v in raw.items()},
              "raw_samples": raw,
              "slowdown": slowdowns}
    return metrics, detail


PER_LAYER_UNITS = {
    "calls": "count", "n": "count", "ms_p50": "ms", "ms_tail": "ms",
    "size_p50": "rows", "self_share": "frac", "optimal_frac": "frac",
    "self_s": "s", "pool_speedup": "ratio", "overhead_frac": "frac",
    "absent_targets": "count", "calib_ms": "ms",
}


def measure_trace(session: Session, seconds: float) -> tuple[dict, dict]:
    """Rounds of untraced and traced children until ``seconds`` have passed.

    Overhead and pool speed-up are medians of per-round ratios of times
    divided by each child's slowdown, so each ratio compares children that
    ran next to each other at the same reference speed.
    """
    w = session.workload
    overhead, speedup, calib = [], [], []
    traced_runs = []
    absent: set[str] = set()
    started = time.monotonic()
    while (time.monotonic() - started < seconds or not traced_runs) \
            and time.monotonic() - started < STOP_S:
        first = session.child(w.parallelism)
        serial = session.child(1) if w.parallelism > 1 else first
        r = session.child(1, trace=True)
        run_spans = spans.from_rows(r["spans"])
        traced_runs.append({"spans": run_spans, "oracle": r["oracle"]})
        root_s = (run_spans[0].end - run_spans[0].start) / 1e9
        serial_s = serial["wall_s"] / _slowdown(serial)
        overhead.append(root_s / _slowdown(r) / serial_s - 1.0)
        speedup.append(serial_s / (first["wall_s"] / _slowdown(first)))
        calib.extend(r["calib_s"])
        absent.update(r["absent"])

    metrics, tails = spans.layer_metrics(traced_runs)
    for _, ok in (o for run in traced_runs for o in run["oracle"]):
        session.checks.check(ok, "hungarian_max total differs from scipy's optimum")
    # On serial workloads there is no pool and the speed-up is 1 by definition.
    metrics["harness.pool_speedup"] = spans.median(speedup) if w.parallelism > 1 else 1.0
    metrics["trace.overhead_frac"] = spans.median(overhead)
    metrics["trace.absent_targets"] = len(absent)
    # Per-layer times are as measured; this says how fast the machine ran.
    metrics["machine.calib_ms"] = 1000.0 * spans.median(calib)
    result = {name: {"value": value, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]}
              for name, value in metrics.items()}
    detail = {"rounds": len(traced_runs), "tail_percentiles": tails,
              "absent": sorted(absent),
              "overhead_frac_per_round": overhead, "pool_speedup_per_round": speedup}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so children are killed and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fdsched" / "__init__.py").is_file():
        print(f"fdsched sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(workload, args.seed, work)
    try:
        session.child(workload.parallelism, setup_only=True)   # warm-up, discarded
        if args.trace:
            metrics, detail = measure_trace(session, args.seconds)
        else:
            metrics, detail = measure_e2e(session, args.seconds)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    c = session.checks
    report = {
        "workload": workload.name, "why": workload.why, "drops": workload.drops,
        "parallelism": workload.parallelism, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "git_revision": _git_revision(),
        "fail_frac": c.failed / c.attempted if c.attempted else 0.0,
        "check_messages": c.messages,
        "digests": session.reference,
        **detail,
    }
    reports = OUT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{work.name}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": c.failed == 0 and c.attempted > 0,
                      "attempted": c.attempted, "failed": c.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
