"""The summary step of tools/bench_pair.py, on canned benchmark report lines."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = {
    "drops_per_s": {"name": "drops_per_s", "better": "higher", "bound": 0.25},
    "cpu_ms_per_drop": {"name": "cpu_ms_per_drop", "better": "lower", "bound": 0.25},
    "assignment.optimal_frac": {"name": "assignment.optimal_frac", "better": "higher"},
}


def run_lines(drops_per_s, cpu_ms, digest="d0", failed=0):
    """The last two stdout lines of one perfbench/run.py invocation."""
    report = {"workload": "fig3-p1", "seed": 1, "digests": {"all_outputs": digest}}
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"drops_per_s": {"value": drops_per_s, "unit": "1/s"},
                          "cpu_ms_per_drop": {"value": cpu_ms, "unit": "ms"}}}
    return "warm-up noise\n" + json.dumps({"report": report}) + "\n" + json.dumps(result) + "\n"


def make_pairs(parent_values, change_values, change_digests=None):
    pairs = []
    for k, (b, c) in enumerate(zip(parent_values, change_values)):
        digest = change_digests[k] if change_digests else "d0"
        pairs.append({"parent": bench_pair.parse_run(run_lines(*b)),
                      "change": bench_pair.parse_run(run_lines(*c, digest=digest))})
    return pairs


class TestParseRun:
    def test_takes_the_last_two_lines(self):
        run = bench_pair.parse_run(run_lines(120.0, 8.0))
        assert run["report"]["workload"] == "fig3-p1"
        assert run["result"]["metrics"]["drops_per_s"]["value"] == 120.0

    def test_short_output_rejected(self):
        with pytest.raises(ValueError):
            bench_pair.parse_run('{"correct": true}\n')


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        parent = [(100.0, 8.0), (110.0, 7.5), (90.0, 8.5), (105.0, 7.0), (95.0, 9.0)]
        change = [(130.0, 6.0), (135.0, 6.5), (120.0, 9.0), (140.0, 6.0), (95.0, 6.1)]
        summary = bench_pair.summarize(make_pairs(parent, change), METRICS)
        assert summary["pairs"] == 5 and summary["all_correct"]
        assert summary["digests_equal"] == 5
        assert summary["failed"] == {"parent": 0, "change": 0}
        drops = summary["metrics"]["drops_per_s"]
        assert drops["parent"] == {"median": 100.0, "quartiles": [95.0, 100.0, 105.0]}
        assert drops["change"] == {"median": 130.0, "quartiles": [120.0, 130.0, 135.0]}
        assert drops["ratio"] == pytest.approx(1.3)
        # the fifth pair is a tie, which counts for neither side
        assert drops["change_won"] == 4
        assert not drops["gain_met"]             # 4/5 < 9/10
        assert not drops["worse_beyond_bound"]
        cpu = summary["metrics"]["cpu_ms_per_drop"]
        assert cpu["change_won"] == 4            # lower is better; pair 3 lost
        assert cpu["parent"]["median"] == 8.0 and cpu["change"]["median"] == 6.1
        # a metric the runs did not report is left out
        assert "assignment.optimal_frac" not in summary["metrics"]

    def test_gain_needs_nine_tenths_and_a_gap_wider_than_the_iqr(self):
        parent = [(100.0 + k, 8.0) for k in range(10)]
        clear = bench_pair.summarize(make_pairs(parent, [(120.0 + k, 8.0) for k in range(10)]),
                                     METRICS)["metrics"]["drops_per_s"]
        assert clear["change_won"] == 10 and clear["gain_met"]
        # wins every pair but by less than the parent's IQR (4.5)
        narrow = bench_pair.summarize(make_pairs(parent, [(101.0 + k, 8.0) for k in range(10)]),
                                      METRICS)["metrics"]["drops_per_s"]
        assert narrow["change_won"] == 10 and not narrow["gain_met"]

    def test_worse_beyond_bound(self):
        parent = [(100.0, 8.0)] * 3
        change = [(74.0, 10.1)] * 3
        metrics = bench_pair.summarize(make_pairs(parent, change), METRICS)["metrics"]
        assert metrics["drops_per_s"]["worse_beyond_bound"]
        assert metrics["cpu_ms_per_drop"]["worse_beyond_bound"]
        within = bench_pair.summarize(make_pairs(parent, [(76.0, 9.9)] * 3), METRICS)["metrics"]
        assert within["drops_per_s"]["worse_beyond_bound"] is False
        assert within["cpu_ms_per_drop"]["worse_beyond_bound"] is False

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # parent IQR 50 > 0.25 * median 100: the medians alone cannot tell
        parent = [(50.0, 8.0), (100.0, 8.0), (150.0, 8.0)]
        overlapping = bench_pair.summarize(make_pairs(parent, [(60.0, 8.0), (100.0, 8.0),
                                                               (140.0, 8.0)]), METRICS)["metrics"]
        assert overlapping["drops_per_s"]["worse_beyond_bound"] == "unresolved"
        assert overlapping["cpu_ms_per_drop"]["worse_beyond_bound"] is False
        # every change run beats every parent run: resolved despite the spread
        above = bench_pair.summarize(make_pairs(parent, [(151.0, 8.0)] * 3), METRICS)["metrics"]
        assert above["drops_per_s"]["worse_beyond_bound"] is False

    def test_console_line_shows_the_claim_and_the_bound(self):
        parent = [(100.0 + k, 8.0) for k in range(10)]
        metrics = bench_pair.summarize(make_pairs(parent, [(120.0 + k, 8.0) for k in range(10)]),
                                       METRICS)["metrics"]
        assert bench_pair.summary_line("mc-epa-p1", "drops_per_s", metrics["drops_per_s"], 10) == (
            "mc-epa-p1 drops_per_s: 104.5 -> 124.5 (change won 10/10; parent IQR 102.25..106.75; "
            "median gap +19.1%; gain_met true; worse_beyond_bound false)")
        # a per-layer metric has no bound; an unresolved bound is spelled as such
        entry = dict(metrics["drops_per_s"], gain_met=False)
        del entry["worse_beyond_bound"]
        assert bench_pair.summary_line("w", "m", entry, 10).endswith("gain_met false)")
        entry["worse_beyond_bound"] = "unresolved"
        assert bench_pair.summary_line("w", "m", entry, 10).endswith(
            "gain_met false; worse_beyond_bound unresolved)")

    def test_relative_median_gap_shows_how_small_a_met_claim_is(self):
        # peak RSS barely spreads: a 0.1% lower median, won in 9 of 10 pairs,
        # meets the claim rule, and the gap says how small it is
        metrics = dict(METRICS, peak_rss_mb={"name": "peak_rss_mb", "better": "lower",
                                             "bound": 0.05})
        pairs = make_pairs([(100.0, 8.0)] * 10, [(100.0, 8.0)] * 10)
        for k, pair in enumerate(pairs):
            for side, mb in (("parent", 37.035 + 0.001 * (k % 3)), ("change", 37.0)):
                pair[side]["result"]["metrics"]["peak_rss_mb"] = {"value": mb, "unit": "MB"}
        pairs[0]["change"]["result"]["metrics"]["peak_rss_mb"]["value"] = 37.04
        rss = bench_pair.summarize(pairs, metrics)["metrics"]["peak_rss_mb"]
        assert rss["gain_met"] and rss["change_won"] == 9
        assert rss["median_gap"] == pytest.approx(37.0 / 37.036 - 1.0)
        assert "median gap -0.1%; gain_met true;" in bench_pair.summary_line(
            "fig3-p1", "peak_rss_mb", rss, 10)
        # the gap is change / parent - 1 whichever way is better, and there is
        # none against a zero parent median
        drops = bench_pair.summarize(make_pairs([(100.0, 8.0)] * 3, [(80.0, 8.0)] * 3),
                                     METRICS)["metrics"]["drops_per_s"]
        assert drops["median_gap"] == pytest.approx(-0.2)
        zero = dict(drops, median_gap=None)
        assert "median gap n/a;" in bench_pair.summary_line("w", "m", zero, 3)

    def test_digest_mismatch_and_failures_counted(self):
        pairs = make_pairs([(100.0, 8.0)] * 2, [(101.0, 8.0)] * 2, change_digests=["d0", "d1"])
        pairs[1]["change"]["result"].update(correct=False, failed=2)
        summary = bench_pair.summarize(pairs, METRICS)
        assert summary["digests_equal"] == 1
        assert not summary["all_correct"]
        assert summary["failed"] == {"parent": 0, "change": 2}

    def test_console_line_shows_whether_the_outputs_moved(self):
        pairs = make_pairs([(100.0, 8.0)] * 3, [(101.0, 8.0)] * 3,
                           change_digests=["d0", "d1", "d0"])
        pairs[0]["parent"]["result"].update(correct=False, failed=1)
        pairs[2]["change"]["result"].update(correct=False, failed=4)
        summary = bench_pair.summarize(pairs, METRICS)
        assert bench_pair.outputs_line("fig2-p2", summary) == (
            "fig2-p2: digests_equal 2/3; failed parent 1, change 4")


@pytest.mark.skipif(shutil.which("git") is None or shutil.which("tar") is None,
                    reason="needs git and tar")
def test_export_tree_writes_the_committed_files(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.txt").write_text("committed\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one file")
    (repo / "a.txt").write_text("uncommitted\n")
    sha = bench_pair.export_tree(repo, "HEAD", tmp_path / "out")
    assert len(sha) == 40
    assert (tmp_path / "out" / "a.txt").read_text() == "committed\n"


def test_main_runs_the_benchmark_command_alternating_sides(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.setattr(bench_pair, "_git", lambda *args: str(root).encode())
    monkeypatch.setattr(bench_pair, "export_tree",
                        lambda _root, rev, dest: f"sha-{rev}")
    calls = []

    def fake_run(tree, command):
        calls.append((tree.name, command))
        return bench_pair.parse_run(run_lines(100.0, 8.0))

    monkeypatch.setattr(bench_pair, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pair.main(["--base", "v0", "--workload", "fig3-p1", "--first-seed", "7",
                            "--pairs", "2", "--out", str(out)]) == 0
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent"]
    assert calls[0][1] == ["python3", "perfbench/run.py", "--workload", "fig3-p1", "--seed", "7"]
    record = json.loads(out.read_text())
    assert record["parent_revision"] == "sha-v0" and record["change_revision"] == "sha-HEAD"
    assert [p["seed"] for p in record["workloads"]["fig3-p1"]["pairs"]] == [7, 8]


def test_main_records_every_workload(tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.setattr(bench_pair, "_git", lambda *args: str(root).encode())
    monkeypatch.setattr(bench_pair, "export_tree",
                        lambda _root, rev, dest: f"sha-{rev}")
    calls = []

    def fake_run(tree, command):
        calls.append((command[3], tree.name, int(command[5])))
        drops = 200.0 if command[3] == "mc-epa-p1" else 100.0
        return bench_pair.parse_run(run_lines(drops + (tree.name == "change"), 8.0))

    monkeypatch.setattr(bench_pair, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pair.main(["--base", "v0", "--workload", "mc-epa-p1", "--workload", "fig3-p1",
                            "--first-seed", "7", "--pairs", "3", "--out", str(out)]) == 0
    # every workload's pair of a seed before the next seed, each pair starting
    # with the parent on even pair indices on every workload
    sides = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    seeds = [7, 7, 8, 8, 9, 9]
    assert calls == [(w, s, 7 + k) for k, order in enumerate(sides)
                     for w in ("mc-epa-p1", "fig3-p1") for s in order]
    record = json.loads(out.read_text())
    assert record["command"] == "python3 perfbench/run.py --workload {workload} --seed {seed}"
    assert list(record["workloads"]) == ["mc-epa-p1", "fig3-p1"]
    for workload, base in (("mc-epa-p1", 200.0), ("fig3-p1", 100.0)):
        entry = record["workloads"][workload]
        assert [p["seed"] for p in entry["pairs"]] == seeds[::2]
        assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
        assert all(p["command"].split()[3] == workload for p in entry["pairs"])
        drops = entry["summary"]["metrics"]["drops_per_s"]
        assert drops["parent"]["median"] == base and drops["change"]["median"] == base + 1
        assert drops["change_won"] == 3
    # per workload, one console line on its outputs and one per metric, with
    # the claim and bound fields
    assert capsys.readouterr().out.splitlines() == [
        "mc-epa-p1: digests_equal 3/3; failed parent 0, change 0",
        "mc-epa-p1 drops_per_s: 200 -> 201 (change won 3/3; parent IQR 200..200; "
        "median gap +0.5%; gain_met true; worse_beyond_bound false)",
        "mc-epa-p1 cpu_ms_per_drop: 8 -> 8 (change won 0/3; parent IQR 8..8; "
        "median gap +0.0%; gain_met false; worse_beyond_bound false)",
        "fig3-p1: digests_equal 3/3; failed parent 0, change 0",
        "fig3-p1 drops_per_s: 100 -> 101 (change won 3/3; parent IQR 100..100; "
        "median gap +1.0%; gain_met true; worse_beyond_bound false)",
        "fig3-p1 cpu_ms_per_drop: 8 -> 8 (change won 0/3; parent IQR 8..8; "
        "median gap +0.0%; gain_met false; worse_beyond_bound false)"]


def test_traced_pairs_run_after_the_pairs_and_land_under_traces(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.setattr(bench_pair, "_git", lambda *args: str(root).encode())
    monkeypatch.setattr(bench_pair, "export_tree",
                        lambda _root, rev, dest: f"sha-{rev}")
    calls = []

    def fake_run(tree, command):
        calls.append((command[3], tree.name, int(command[5]), command[6:]))
        return bench_pair.parse_run(run_lines(100.0, 8.0))

    monkeypatch.setattr(bench_pair, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pair.main(["--base", "v0", "--workload", "mc-epa-p1", "--workload", "fig2-p2",
                            "--first-seed", "7", "--pairs", "2", "--traced-pairs", "2",
                            "--out", str(out)]) == 0
    traced = ["--trace", "1"]
    per_seed = [(("parent", "change"), 7, []), (("change", "parent"), 8, []),
                (("parent", "change"), 9, traced), (("change", "parent"), 10, traced)]
    assert calls == [(w, side, seed, extra) for order, seed, extra in per_seed
                     for w in ("mc-epa-p1", "fig2-p2") for side in order]
    record = json.loads(out.read_text())
    assert list(record["traces"]) == ["mc-epa-p1", "fig2-p2"]
    for workload in ("mc-epa-p1", "fig2-p2"):
        runs = record["traces"][workload]["runs"]
        assert [(r["side"], r["seed"]) for r in runs] == [
            ("parent", 9), ("change", 9), ("change", 10), ("parent", 10)]
        assert all(r["command"] == ["python3", "perfbench/run.py", "--workload", workload,
                                    "--seed", str(r["seed"]), "--trace", "1"] for r in runs)
        assert all(set(r) == {"side", "seed", "command", "report", "result"} for r in runs)
        # each traced run on one line of the file
        assert sum(line.strip().startswith('{"side"')
                   for line in out.read_text().splitlines()) == 8
        # the summary covers the untraced pairs only
        assert record["workloads"][workload]["summary"]["pairs"] == 2
        assert [p["seed"] for p in record["workloads"][workload]["pairs"]] == [7, 8]


def test_no_traces_key_without_traced_pairs(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    monkeypatch.setattr(bench_pair, "_git", lambda *args: str(root).encode())
    monkeypatch.setattr(bench_pair, "export_tree", lambda _root, rev, dest: f"sha-{rev}")
    monkeypatch.setattr(bench_pair, "run_bench",
                        lambda tree, command: bench_pair.parse_run(run_lines(100.0, 8.0)))
    out = tmp_path / "bench.json"
    assert bench_pair.main(["--base", "v0", "--workload", "fig3-p1", "--first-seed", "7",
                            "--pairs", "1", "--out", str(out)]) == 0
    assert "traces" not in json.loads(out.read_text())
    with pytest.raises(SystemExit):
        bench_pair.main(["--base", "v0", "--workload", "fig3-p1", "--first-seed", "7",
                         "--traced-pairs", "-1", "--out", str(out)])


def test_main_rejects_a_repeated_workload(tmp_path):
    with pytest.raises(SystemExit):
        bench_pair.main(["--base", "v0", "--workload", "fig3-p1", "--workload", "fig3-p1",
                         "--first-seed", "7", "--out", str(tmp_path / "bench.json")])


@pytest.mark.parametrize("traced", [True, False])
def test_a_record_puts_each_pair_and_traced_run_on_one_line(traced):
    pairs = make_pairs([(100.0, 8.0), (90.0, 8.5)], [(110.0, 7.0), (95.0, 7.5)])
    for seed, pair in enumerate(pairs, 7):
        pair.update(seed=seed, first="parent" if seed % 2 else "change", command="run")
    runs = [{"side": side, "seed": 9, "command": ["run", "--trace", "1"], **pairs[0][side]}
            for side in ("parent", "change")]
    record = {"command": "run", "note": "n", "parent_revision": "a", "change_revision": "b",
              "workloads": {"fig3-p1": {"summary": bench_pair.summarize(pairs, METRICS),
                                        "pairs": pairs}}}
    if traced:
        record["traces"] = {"fig3-p1": {"note": "t", "runs": runs}}
    text = bench_pair.dumps_record(record)
    assert json.loads(text) == record and text.endswith("}\n")
    lines = [line.strip().rstrip(",") for line in text.splitlines()]
    assert [json.loads(line) for line in lines
            if line.startswith("{") and line.endswith("}")] == pairs + runs * traced
    # the summaries stay indented, one field a line
    assert '    "pairs": 2,' in text.splitlines()
