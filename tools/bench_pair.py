"""Benchmark the checked-out commit against a base revision and write the BENCH record.

    python3 tools/bench_pair.py --base <rev> --workload mc-epa-p1 \
        --workload fig3-p1 --first-seed 811 --pairs 10 --traced-pairs 2 \
        --out BENCH_8.json

Run from anywhere inside the repository.  ``HEAD`` and the base revision
are exported with ``git archive`` into a temporary directory, so
uncommitted edits take no part and neither tree's ``.bench_out`` lands in
the checkout.  ``--workload`` may be given several times.  For each of
the seeds first-seed .. first-seed + pairs - 1 and each workload, each
tree runs the benchmark command of ``BENCHMARK.json`` once with only
``--workload`` and ``--seed``, so the run length and tracing are the
benchmark's own defaults on both sides.  Every workload runs its pair of a
seed before the next seed starts, so host load drifts alike across the
workloads and their absolute values stay comparable.  The side that runs
first alternates from seed to seed, starting with the base, on every
workload.

The output holds, under ``workloads``, one entry per workload with every
pair (the last two stdout lines of each run, as ``report`` and ``result``)
and a summary: per metric, each side's median and quartiles over the
pairs, the relative median gap (change / parent - 1, ``median_gap``), how
many pairs the change won (ties count for neither), and whether the claim
rule is met: at least nine tenths of the pairs won and a median gap wider
than the base's interquartile range.  For end-to-end metrics ``worse_beyond_bound``
says whether the change's median is worse than the base's by more than the
bound in ``BENCHMARK.json``; it is ``"unresolved"`` when the base's
interquartile range is wider than that bound and some change run does not
beat every base run, since such a spread cannot tell a regression from
noise.

The console gets, per workload, one line with the pairs whose output
digests were equal and each side's failed operations, then one line per
metric: both medians, the pairs the change won, the base's interquartile
range, the relative median gap, ``gain_met`` and, for end-to-end metrics,
``worse_beyond_bound``.  The gap shows how large a met claim is: a 0.1%
gap on a metric that barely spreads can meet the rule.

With ``--traced-pairs N``, N more pairs per workload then run with
``--trace 1`` added, on the seeds after the untraced ones, interleaved
and alternating in the same way.  Their runs are stored under ``traces``,
per workload, in the order they ran; they give the per-layer metrics that
show where a change's time went, and take no part in the summary.

The file is indented JSON, except that each pair and each traced run
takes one line (``dumps_record``): they hold most of its bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# perfbench/run.py ends within three minutes by design; this only catches
# a run that hangs outside its own deadline.
RUN_TIMEOUT_S = 600


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def export_tree(root: Path, rev: str, dest: Path) -> str:
    """Write revision ``rev`` of the repository into ``dest``; return its hash."""
    sha = _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git(root, "archive", sha), check=True)
    return sha


def parse_run(stdout: str) -> dict:
    """The report and result objects from the last two lines of run.py's stdout."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("benchmark printed fewer than two lines")
    report = json.loads(lines[-2])["report"]
    return {"report": report, "result": json.loads(lines[-1])}


def run_bench(tree: Path, command: list[str]) -> dict:
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark in {tree} exited with {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per-metric medians, quartiles and win counts over the pairs.

    ``metrics`` maps each metric name to its ``BENCHMARK.json`` entry
    (``better`` and, for end-to-end metrics, ``bound``); metrics a run did
    not report are skipped.
    """
    out: dict = {"pairs": len(pairs),
                 "all_correct": all(p[side]["result"]["correct"]
                                    for p in pairs for side in ("parent", "change")),
                 "failed": {side: sum(p[side]["result"]["failed"] for p in pairs)
                            for side in ("parent", "change")},
                 "digests_equal": sum(p["parent"]["report"]["digests"]
                                      == p["change"]["report"]["digests"] for p in pairs),
                 "metrics": {}}
    for name, spec in metrics.items():
        if not all(name in p[side]["result"]["metrics"]
                   for p in pairs for side in ("parent", "change")):
            continue
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        won = sum(sign * (c - b) > 0 for b, c in zip(values["parent"], values["change"]))
        base_med = statistics.median(values["parent"])
        change_med = statistics.median(values["change"])
        base_q = _quartiles(values["parent"])
        entry = {"better": spec["better"],
                 "parent": {"median": base_med, "quartiles": base_q},
                 "change": {"median": change_med, "quartiles": _quartiles(values["change"])},
                 "ratio": change_med / base_med if base_med else None,
                 "median_gap": change_med / base_med - 1.0 if base_med else None,
                 "change_won": won,
                 "gain_met": (won >= 0.9 * len(pairs)
                              and sign * (change_med - base_med) > base_q[2] - base_q[0])}
        if "bound" in spec:
            allowed = spec["bound"] * abs(base_med)
            beats_all = (min(sign * c for c in values["change"])
                         > max(sign * b for b in values["parent"]))
            if base_q[2] - base_q[0] > allowed and not beats_all:
                entry["worse_beyond_bound"] = "unresolved"
            else:
                entry["worse_beyond_bound"] = -sign * (change_med - base_med) > allowed
        out["metrics"][name] = entry
    return out


def summary_line(workload: str, name: str, entry: dict, pairs: int) -> str:
    """The console line of one metric's summary entry: both medians, the
    pairs won, the parent's interquartile range, the relative median gap
    next to whether the claim rule is met and, for an end-to-end metric,
    whether it is worse beyond its bound."""
    q1, _, q3 = entry["parent"]["quartiles"]
    gap = entry["median_gap"]
    line = (f"{workload} {name}: {entry['parent']['median']:.6g} -> "
            f"{entry['change']['median']:.6g} (change won {entry['change_won']}/{pairs}; "
            f"parent IQR {q1:.6g}..{q3:.6g}; "
            f"median gap {'n/a' if gap is None else format(gap, '+.1%')}; "
            f"gain_met {str(entry['gain_met']).lower()}")
    if "worse_beyond_bound" in entry:
        line += f"; worse_beyond_bound {str(entry['worse_beyond_bound']).lower()}"
    return line + ")"


def outputs_line(workload: str, summary: dict) -> str:
    """The console line of whether a workload's outputs moved: the pairs
    with equal digests and the failed operations of each side."""
    failed = summary["failed"]
    return (f"{workload}: digests_equal {summary['digests_equal']}/{summary['pairs']}; "
            f"failed parent {failed['parent']}, change {failed['change']}")


def dumps_record(record: dict) -> str:
    """The BENCH record as JSON text: indented, but with each pair and each
    traced run, which hold the bulk of the record, on one line."""
    lines = {}   # a placeholder's JSON text -> the entry's one-line JSON text

    def one_line(entry):
        placeholder = f"\0{len(lines)}"
        lines[json.dumps(placeholder)] = json.dumps(entry)
        return placeholder

    shallow = {**record, "workloads": {
        workload: {**entry, "pairs": [one_line(pair) for pair in entry["pairs"]]}
        for workload, entry in record["workloads"].items()}}
    if "traces" in record:
        shallow["traces"] = {workload: {**entry, "runs": [one_line(run) for run in entry["runs"]]}
                             for workload, entry in record["traces"].items()}
    text = json.dumps(shallow, indent=1)
    return re.sub(r'"\\u0000\d+"', lambda m: lines[m.group()], text) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        help="benchmark workload; repeat to run several")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced-pairs", type=int, default=0,
                        help="extra --trace 1 pairs per workload, stored under traces")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.traced_pairs < 0:
        parser.error("--traced-pairs must not be negative")
    if len(set(args.workload)) < len(args.workload):
        parser.error("a --workload is given twice")

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def command(workload, seed) -> list[str]:
        return [*spec["command"], "--workload", workload, "--seed", str(seed)]

    def sides(k):   # pair k starts with the parent when k is even
        return ("parent", "change") if k % 2 == 0 else ("change", "parent")

    pairs = {workload: [] for workload in args.workload}
    runs = {workload: [] for workload in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        revs = {side: export_tree(root, rev, trees[side])
                for side, rev in (("parent", args.base), ("change", "HEAD"))}
        for k in range(args.pairs):
            seed = args.first_seed + k
            for workload in args.workload:
                order = sides(k)
                pair = {"seed": seed, "first": order[0],
                        "command": " ".join(command(workload, seed))}
                for side in order:
                    print(f"{workload} pair {k + 1}/{args.pairs}, seed {seed}: {side}",
                          file=sys.stderr)
                    pair[side] = run_bench(trees[side], command(workload, seed))
                pairs[workload].append(pair)
        for k in range(args.traced_pairs):
            seed = args.first_seed + args.pairs + k
            for workload in args.workload:
                traced = [*command(workload, seed), "--trace", "1"]
                for side in sides(k):
                    print(f"{workload} traced pair {k + 1}/{args.traced_pairs}, seed {seed}: "
                          f"{side}", file=sys.stderr)
                    runs[workload].append({"side": side, "seed": seed, "command": traced,
                                           **run_bench(trees[side], traced)})
    workloads = {workload: {"summary": summarize(pairs[workload], metrics),
                            "pairs": pairs[workload]} for workload in args.workload}
    traces = {workload: {"note": "one --trace 1 run per side per seed, in the order "
                                 "listed, on the same revisions as the pairs",
                         "runs": runs[workload]}
              for workload in args.workload if runs[workload]}

    record = {
        "command": " ".join(command("{workload}", "{seed}")),
        "note": "each pair: the last two stdout lines of the benchmark at the parent "
                "revision and with the change, both run from trees exported with git "
                "archive (so git_revision is null), the first side alternating",
        "parent_revision": revs["parent"],
        "change_revision": revs["change"],
        "workloads": workloads,
    }
    if traces:
        record["traces"] = traces
    args.out.write_text(dumps_record(record))
    for workload, entry in workloads.items():
        print(outputs_line(workload, entry["summary"]))
        for name, m in entry["summary"]["metrics"].items():
            print(summary_line(workload, name, m, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
