import json
import math
import statistics

import pytest

import checks
from workloads import Workload

TINY = Workload(name="tiny", why="test", drops=3, parallelism=1, num_ul=2, num_dl=2,
                num_channels=2, strategies=("P-OPT", "C-HUN"), mu_values=(0.1, 0.9),
                weight_modes=("SR",))


def _record(drop, strategy, mu, se_ul, se_dl):
    all_se = se_ul + se_dl
    total, low = sum(all_se), min(all_se)
    return {"drop": drop, "strategy": strategy, "mu": mu, "weight_mode": "SR",
            "objective": (1 - mu) * total + mu * low, "sum_se": total,
            "min_se": low, "jain": total ** 2 / (len(all_se) * sum(x * x for x in all_se)),
            "se_ul": se_ul, "se_dl": se_dl, "seed": f"1:{drop}", "gain_hash": "0"}


def _records():
    out = []
    for k in range(TINY.drops):
        for mu in TINY.mu_values:
            out.append(_record(k, "P-OPT", mu, [3.0 + k, 2.0], [2.5, 1.5 + k]))
            out.append(_record(k, "C-HUN", mu, [3.0 + k, 1.0], [2.0, 1.5 + k]))
    return out


def _write_run(path, records):
    path.mkdir()
    (path / "records.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    medians = {}
    for mu in TINY.mu_values:
        for strategy in TINY.strategies:
            combo = [r for r in records if r["strategy"] == strategy and r["mu"] == mu]
            for metric in checks.METRICS:
                medians[f"{metric}|{strategy}|mu={mu}|SR"] = statistics.median_low(
                    r[metric] for r in combo)
    (path / "summary.json").write_text(json.dumps({"medians": medians}))
    return path


def test_consistent_run_passes_every_check(tmp_path):
    result = checks.check_run(_write_run(tmp_path / "run", _records()), TINY)
    assert result.failed == 0, result.messages
    # 1 order check + 3 per record (all SR) + 1 per record's objective,
    # 1 per (drop, mu) bound, 1 per summary median + 1 key-set check.
    records = len(_records())
    assert result.attempted == 1 + 4 * records + 6 + 16 + 1


@pytest.mark.parametrize("corrupt", ["objective", "nan_se", "negative_se",
                                     "popt_below_chun", "missing_record", "summary"])
def test_corrupted_output_raises_fail_frac(tmp_path, corrupt):
    records = _records()
    if corrupt == "objective":
        records[4]["objective"] *= 1.001
    elif corrupt == "nan_se":
        records[2]["se_dl"][0] = math.nan
    elif corrupt == "negative_se":      # self-consistent apart from the sign
        records[3].update(_record(0, "C-HUN", 0.9, [4.0, -0.1], [2.0, 2.5]))
    elif corrupt == "popt_below_chun":
        chun = records[1]
        records[0].update(_record(0, "P-OPT", chun["mu"], [0.5, 0.5], [0.5, 0.5]))
    elif corrupt == "missing_record":
        del records[-1]
    run = _write_run(tmp_path / "run", records)
    if corrupt == "summary":
        doc = json.loads((run / "summary.json").read_text())
        doc["medians"]["jain|C-HUN|mu=0.9|SR"] += 1e-6
        (run / "summary.json").write_text(json.dumps(doc))
    result = checks.check_run(run, TINY)
    assert result.failed >= 1
    assert 0 < result.failed / result.attempted < 1


def test_unreadable_output_is_one_failed_check(tmp_path):
    (tmp_path / "run").mkdir()
    result = checks.check_run(tmp_path / "run", TINY)
    assert (result.attempted, result.failed) == (1, 1)


def test_digests_match_only_for_identical_outputs(tmp_path):
    a = _write_run(tmp_path / "a", _records())
    b = _write_run(tmp_path / "b", _records())
    (a / "cdf_jain_C-HUN_mu0.1_SR.csv").write_text("x\n")
    (b / "cdf_jain_C-HUN_mu0.1_SR.csv").write_text("x\n")
    assert checks.digests(a) == checks.digests(b)
    (b / "cdf_jain_C-HUN_mu0.1_SR.csv").write_text("y\n")
    changed = checks.digests(b)
    assert changed["records.jsonl"] == checks.digests(a)["records.jsonl"]
    assert changed["all_outputs"] != checks.digests(a)["all_outputs"]
