"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Exact criteria (1, 2, 6, 8) use fixed seeds and zero or 1e-12 tolerances.
Statistical criteria (3, 4, 5, 7) run the canned experiments at full size
(400 drops) and check the documented bands.  Each criterion also has a
wall-clock budget.

Run with `pytest tests/test_acceptance.py -s` to see every line.
"""

import math
import time

import numpy as np
import pytest

from fdsched.assignment import hungarian_max
from fdsched.harness import canned_experiments, run_experiment
from fdsched.metrics import percentile
from fdsched.model import ScenarioParams, WeightMode
from fdsched.radio import make_weights
from fdsched.solvers import solve_c_hun, solve_p_opt, solve_r_epa
from oracles import (
    benefit_value,
    brute_force_assignment,
    drop_gain_table,
    drop_rng,
    dual_multipliers,
    evaluate_pair,
    median_gap,
    one_drop,
    read_cdf_csv,
)

SEED = 1


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} | {detail}")


def _read_cdf(out_dir, metric, strategy, mu, mode):
    return read_cdf_csv(out_dir / f"cdf_{metric}_{strategy}_mu{mu}_{mode}.csv")[1]


@pytest.fixture(scope="module")
def fig2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    cfg = canned_experiments("fig2", seed=SEED, out_dir=str(out), parallelism=2)
    started = time.perf_counter()
    run_experiment(cfg)
    return out, time.perf_counter() - started


@pytest.fixture(scope="module")
def fig3_run_par8(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3_par8")
    cfg = canned_experiments("fig3", seed=SEED, out_dir=str(out), parallelism=8)
    started = time.perf_counter()
    run_experiment(cfg)
    return out, time.perf_counter() - started


def test_criterion_1_hungarian_equals_brute_force():
    """Exact oracle equivalence on 1,000 random matrices, padded size <= 7.

    Integer-valued entries keep every total exact in float64, so equality
    is meaningful even when distinct optimal matchings exist.
    """
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        matrix = rng.integers(-50, 51, size=(rows, cols)).astype(float)
        _, solver_total = hungarian_max(matrix)
        _, oracle_total = brute_force_assignment(matrix)
        assert solver_total == oracle_total, f"mismatch on {matrix!r}"
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    _report("criterion 1 (Hungarian oracle equivalence)", ok,
            f"1000/1000 exact matches, {elapsed:.2f} s < 10 s")
    assert ok


def test_criterion_2_optimality_sandwich():
    """C-HUN and R-EPA never beat P-OPT on 200 drops, three mu values."""
    base = ScenarioParams(num_ul=4, num_dl=4, num_channels=4)
    started = time.perf_counter()
    worst = -math.inf
    for k in range(200):
        gains = drop_gain_table(base, drop_rng(202, k, 0))
        weights = make_weights(WeightMode.SUM_RATE, gains)
        for mu in (0.1, 0.5, 0.9):
            top = one_drop(solve_p_opt, gains, base, [(weights, mu)])[0].objective
            for challenger in (
                one_drop(solve_c_hun, gains, base, [(weights, mu)])[0].objective,
                one_drop(solve_r_epa, gains, base, [(weights, mu)],
                         drop_rng(202, k, 1))[0].objective,
            ):
                worst = max(worst, challenger - top)
                assert challenger <= top + 1e-12
    elapsed = time.perf_counter() - started
    ok = elapsed < 120.0
    _report("criterion 2 (optimality sandwich)", ok,
            f"600 instances, worst excess {worst:.2e} <= 1e-12, {elapsed:.1f} s < 120 s")
    assert ok


def test_criterion_3_fig2_gap_trend(fig2_run):
    """Canned fig2: P-OPT/C-HUN median gap bands and decreasing trend."""
    out, elapsed = fig2_run
    gaps = {}
    for mu in (0.1, 0.5, 0.9):
        popt = _read_cdf(out, "objective", "P-OPT", mu, "SR")
        chun = _read_cdf(out, "objective", "C-HUN", mu, "SR")
        gaps[mu] = median_gap(popt, chun)
    failures = []
    if not gaps[0.1] > gaps[0.9]:
        failures.append(f"gap increases with mu: {gaps[0.1]:.4f} -> {gaps[0.9]:.4f}")
    if not 0.15 <= gaps[0.1] <= 0.50:
        failures.append(f"gap at mu=0.1 is {gaps[0.1]:.4f}, outside [0.15, 0.50]")
    if not 0.10 <= gaps[0.9] <= 0.40:
        failures.append(f"gap at mu=0.9 is {gaps[0.9]:.4f}, outside [0.10, 0.40]")
    if elapsed >= 600.0:
        failures.append(f"run took {elapsed:.0f} s >= 600 s")
    detail = (f"median gaps mu=0.1: {gaps[0.1]:.4f}, mu=0.5: {gaps[0.5]:.4f}, "
              f"mu=0.9: {gaps[0.9]:.4f}, {elapsed:.1f} s")
    _report("criterion 3 (fig2 gap trend)", not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_4_fig3_fairness(fig3_run_par8):
    """Canned fig3: Jain gains of C-HUN over C-NINT, C-NINT vs R-EPA,
    and SR-vs-PL agreement of C-HUN."""
    out, elapsed = fig3_run_par8
    jain = {(s, m): _read_cdf(out, "jain", s, 0.9, m)
            for s in ("C-HUN", "C-NINT", "R-EPA") for m in ("SR", "PL")}
    gain_sr = median_gap(jain[("C-HUN", "SR")], jain[("C-NINT", "SR")])
    gain_pl = median_gap(jain[("C-HUN", "PL")], jain[("C-NINT", "PL")])
    nint_vs_repa = median_gap(jain[("C-NINT", "SR")], jain[("R-EPA", "SR")])
    sr_median = percentile(jain[("C-HUN", "SR")], 50)
    pl_median = percentile(jain[("C-HUN", "PL")], 50)
    sr_pl_diff = abs(sr_median - pl_median) / pl_median

    failures = []
    if not (0.08 <= gain_sr <= 0.25):
        failures.append(f"C-HUN/C-NINT Jain gain {gain_sr:.4f} outside [0.08, 0.25]")
    if not abs(nint_vs_repa) <= 0.05:
        failures.append(f"C-NINT vs R-EPA Jain gap {nint_vs_repa:.4f} beyond +-0.05")
    if not sr_pl_diff <= 0.03:
        failures.append(f"C-HUN SR vs PL Jain medians differ by {sr_pl_diff:.4f} > 0.03")
    if elapsed >= 900.0:
        failures.append(f"run took {elapsed:.0f} s >= 900 s")
    detail = (f"Jain gain C-HUN/C-NINT: SR {gain_sr:.4f}, PL {gain_pl:.4f}; "
              f"C-NINT vs R-EPA {nint_vs_repa:.4f}; SR-PL diff {sr_pl_diff:.4f}; "
              f"{elapsed:.1f} s")
    _report("criterion 4 (fig3 fairness)", not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_5_fig4_sum_se(fig3_run_par8):
    """Same run as criterion 4, read for sum spectral efficiency."""
    out, elapsed = fig3_run_par8
    sums = {(s, m): _read_cdf(out, "sum_se", s, 0.9, m)
            for s in ("C-HUN", "C-NINT") for m in ("SR", "PL")}
    gain_sr = median_gap(sums[("C-HUN", "SR")], sums[("C-NINT", "SR")])
    sr_median = percentile(sums[("C-HUN", "SR")], 50)
    pl_median = percentile(sums[("C-HUN", "PL")], 50)
    sr_pl_diff = abs(sr_median - pl_median) / pl_median

    failures = []
    if not (0.09 <= gain_sr <= 0.25):
        failures.append(f"C-HUN/C-NINT sum-SE gain {gain_sr:.4f} outside [0.09, 0.25]")
    if not sr_pl_diff <= 0.03:
        failures.append(f"C-HUN SR vs PL sum-SE medians differ by {sr_pl_diff:.4f} > 0.03")
    detail = (f"sum-SE gain C-HUN/C-NINT SR: {gain_sr:.4f}; "
              f"SR-PL diff {sr_pl_diff:.4f}; shared run {elapsed:.1f} s")
    _report("criterion 5 (fig4 sum spectral efficiency)", not failures, detail)
    assert not failures, "; ".join(failures)


def test_criterion_6_dual_lp_optimality():
    """dual_multipliers achieves mu*min(c) and beats 10,000 simplex points
    on every one of 100 random instances."""
    rng = np.random.default_rng(606)
    started = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 51))
        c = rng.uniform(0.0, 20.0, size=n)
        mu = float(rng.uniform(0.01, 1.0))
        lam = dual_multipliers(c, mu)
        assert lam.sum() == pytest.approx(mu, abs=1e-15)
        assert np.all(lam >= 0.0)
        value = float(c @ lam)
        assert value == pytest.approx(mu * float(c.min()), rel=1e-12)
        feasible = mu * rng.dirichlet(np.ones(n), size=10_000)
        violations = int(np.sum(feasible @ c < value))
        assert violations == 0
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    _report("criterion 6 (dual LP optimality)", ok,
            f"100 instances x 10k simplex points, zero violations, "
            f"{elapsed:.2f} s < 5 s")
    assert ok


def test_criterion_7_binary_power_corners():
    """Best corner vs a 50x50 power grid on 500 random pairs.

    Asserted at mu=0 (weighted-sum objective, where binary power control is
    optimal); violation counts at mu in {0.5, 1.0} are reported only, since
    the min term can peak at interior power balances.
    """
    base = ScenarioParams(num_ul=1, num_dl=1, num_channels=2)
    grid_u = np.linspace(0.0, base.p_max_ul_w, 50)
    grid_d = np.linspace(0.0, base.p_max_dl_w, 50)
    pu, pd = np.meshgrid(grid_u, grid_d, indexing="ij")
    started = time.perf_counter()
    counts = {0.0: 0, 0.5: 0, 1.0: 0}
    worst_excess = {0.0: 0.0, 0.5: 0.0, 1.0: 0.0}
    for k in range(500):
        gains = drop_gain_table(base, drop_rng(707, k, 0))
        se_u = np.log2(1.0 + pu * gains.g_ul[0]
                       / (base.noise_power_w + pd * base.si_cancellation))
        se_d = np.log2(1.0 + pd * gains.g_dl[0]
                       / (base.noise_power_w + pu * gains.g_cross[0, 0]))
        weights = make_weights(WeightMode.SUM_RATE, gains)
        for mu in counts:
            corner_best = evaluate_pair(0, 0, gains, base, weights, mu).benefit
            grid_best = float(benefit_value(se_u, se_d, 1.0, 1.0, mu).max())
            if grid_best > corner_best + 1e-9:
                counts[mu] += 1
                worst_excess[mu] = max(worst_excess[mu], grid_best - corner_best)
    elapsed = time.perf_counter() - started
    ok = counts[0.0] == 0 and elapsed < 60.0
    _report("criterion 7 (binary power control)", ok,
            f"mu=0: {counts[0.0]}/500 violations (asserted); "
            f"mu=0.5: {counts[0.5]}/500, mu=1.0: {counts[1.0]}/500 "
            f"(reported, worst excess {worst_excess[1.0]:.3f}); {elapsed:.1f} s")
    assert counts[0.0] == 0
    assert ok


def test_criterion_8_reproducibility_across_parallelism(fig3_run_par8, tmp_path):
    """Canned fig3 with parallelism 1 and 8: byte-identical result files."""
    out8, elapsed8 = fig3_run_par8
    out1 = tmp_path / "fig3_par1"
    cfg = canned_experiments("fig3", seed=SEED, out_dir=str(out1), parallelism=1)
    started = time.perf_counter()
    run_experiment(cfg)
    elapsed1 = time.perf_counter() - started

    csv_names = sorted(p.name for p in out8.iterdir() if p.suffix == ".csv")
    assert csv_names, "no CDF outputs found"
    mismatches = [name for name in csv_names
                  if (out1 / name).read_bytes() != (out8 / name).read_bytes()]
    records_match = (out1 / "records.jsonl").read_bytes() == \
        (out8 / "records.jsonl").read_bytes()
    summary_match = (out1 / "summary.json").read_bytes() == \
        (out8 / "summary.json").read_bytes()
    total = elapsed1 + elapsed8
    failures = []
    if mismatches:
        failures.append(f"CSV files differ: {mismatches}")
    if not records_match:
        failures.append("records.jsonl differs")
    if not summary_match:
        failures.append("summary.json differs")
    if total >= 1800.0:
        failures.append(f"total {total:.0f} s >= 1800 s")
    _report("criterion 8 (reproducibility)", not failures,
            f"{len(csv_names)} CSVs byte-identical across parallelism 1 vs 8, "
            f"total {total:.1f} s")
    assert not failures, "; ".join(failures)
