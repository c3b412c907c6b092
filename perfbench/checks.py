"""Output checks on one run directory, and the digests that compare runs.

Every check counts once toward ``attempted``; a check that does not hold
counts toward ``failed``.  The expected shape comes from the benchmark's
workload definition, not from the config the program wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import nearest_rank

REL_TOL = 1e-9
METRICS = ("objective", "sum_se", "min_se", "jain")
MAX_MESSAGES = 20


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        room = MAX_MESSAGES - len(self.messages)
        self.messages.extend(other.messages[:max(room, 0)])


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _finite_nonneg(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
               for v in values)


def check_records(records: list[dict], workload, checks: Checks) -> None:
    """Record count and drop order, SE vectors, and the derived scalars."""
    expected = workload.records_expected()
    per_drop = expected // workload.drops
    drops = [r.get("drop") for r in records]
    in_order = (len(records) == expected
                and drops == [k for k in range(workload.drops) for _ in range(per_drop)])
    checks.check(in_order, f"expected {expected} records in drop order, "
                           f"got {len(records)}")

    for n, r in enumerate(records):
        where = f"record {n} (drop {r.get('drop')}, {r.get('strategy')}, " \
                f"mu {r.get('mu')}, {r.get('weight_mode')})"
        se_ul, se_dl = r.get("se_ul", []), r.get("se_dl", [])
        shape_ok = (len(se_ul) == workload.num_ul and len(se_dl) == workload.num_dl
                    and _finite_nonneg(se_ul + se_dl))
        checks.check(shape_ok, f"{where}: SE vectors not {workload.num_ul}+"
                               f"{workload.num_dl} finite non-negative values")
        if not shape_ok:
            continue
        all_se = se_ul + se_dl
        total, low = math.fsum(all_se), min(all_se)
        checks.check(_close(r["sum_se"], total) and _close(r["min_se"], low),
                     f"{where}: sum_se/min_se do not match the SE vectors")
        n_users = len(all_se)
        checks.check(1.0 / n_users - 1e-12 <= r["jain"] <= 1.0 + 1e-12,
                     f"{where}: jain {r['jain']} outside [1/{n_users}, 1]")
        if r["weight_mode"] == "SR":
            mu = r["mu"]
            checks.check(_close(r["objective"], (1 - mu) * total + mu * low),
                         f"{where}: SR objective {r['objective']} != "
                         f"(1-mu)*sum + mu*min")


def check_popt_bound(records: list[dict], checks: Checks) -> None:
    """P-OPT is exhaustive, so it never scores below C-HUN on a drop."""
    best = defaultdict(dict)
    for r in records:
        best[(r["drop"], r["mu"], r["weight_mode"])][r["strategy"]] = r["objective"]
    for key, by_strategy in sorted(best.items()):
        if "P-OPT" in by_strategy and "C-HUN" in by_strategy:
            popt, chun = by_strategy["P-OPT"], by_strategy["C-HUN"]
            checks.check(popt >= chun - REL_TOL * abs(chun),
                         f"drop {key[0]} mu {key[1]}: P-OPT {popt} < C-HUN {chun}")


def check_summary(records: list[dict], summary: dict, workload, checks: Checks) -> None:
    """Every median in summary.json equals the nearest-rank median of the records."""
    medians = summary.get("medians", {})
    expected_keys = set()
    for mode in workload.weight_modes:
        for mu in workload.mu_values:
            for strategy in workload.strategies:
                combo = [r for r in records if r["strategy"] == strategy
                         and r["mu"] == mu and r["weight_mode"] == mode]
                for metric in METRICS:
                    key = f"{metric}|{strategy}|mu={mu}|{mode}"
                    expected_keys.add(key)
                    value = nearest_rank(sorted(r[metric] for r in combo), 50)
                    checks.check(bool(combo) and medians.get(key) == value,
                                 f"summary median {key} = {medians.get(key)}, "
                                 f"records give {value}")
    checks.check(set(medians) == expected_keys,
                 "summary.json holds other median keys than the workload's combinations")


def check_run(run_dir: Path, workload) -> Checks:
    checks = Checks()
    try:
        records = [json.loads(line) for line in
                   (run_dir / "records.jsonl").read_text().splitlines() if line]
        summary = json.loads((run_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        checks.check(False, f"{run_dir.name}: unreadable output: {exc}")
        return checks
    check_records(records, workload, checks)
    check_popt_bound(records, checks)
    check_summary(records, summary, workload, checks)
    return checks


def digests(run_dir: Path) -> dict[str, str]:
    """sha256 of records.jsonl and summary.json, plus one over every
    deterministic output file (records, summary and all CDFs, by name)."""
    out = {}
    combined = hashlib.sha256()
    names = ["records.jsonl", "summary.json"] + sorted(
        p.name for p in run_dir.glob("cdf_*.csv"))
    for name in names:
        path = run_dir / name
        data = path.read_bytes() if path.is_file() else b""
        combined.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
        if not name.startswith("cdf_"):
            out[name] = hashlib.sha256(data).hexdigest()
    out["all_outputs"] = combined.hexdigest()
    return out
