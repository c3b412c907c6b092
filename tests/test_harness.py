import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import string
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fdsched import harness
from fdsched.cli import main
from fdsched.harness import (
    _LAYOUT,
    ConfigError,
    ExperimentConfig,
    _json_float,
    _spelled_schedule,
    canned_experiments,
    config_from_dict,
    config_to_dict,
    drop_rngs,
    load_config,
    require_valid_config,
    run_experiment,
)
from fdsched.model import GainTable, Outcomes, ScenarioParams, WeightMode, db_to_linear
from fdsched.scenario import build_gain_table, scenario_to_dict
from oracles import (drop_gain_table, drop_rng, gain_hash, load_scenario, median_gap,
                     modules_after, read_cdf_csv, reference_cdfs_and_summary,
                     reference_drop_records)


def fail_at_drop(monkeypatch, failing):
    """Make harness.drop_rngs raise RuntimeError("drop <failing> failed") for
    any range of drops that holds drop failing; forked workers inherit it."""
    def failing_drop_rngs(master_seed, lo, hi, role, _real=harness.drop_rngs):
        if lo <= failing < hi:
            raise RuntimeError(f"drop {failing} failed")
        return _real(master_seed, lo, hi, role)

    monkeypatch.setattr(harness, "drop_rngs", failing_drop_rngs)


@pytest.fixture
def schedules(monkeypatch):
    """The schedules harness._spelled_schedule spells, in order: each one's
    strategy, drop, SE rows and sum_se."""
    spelled = []

    def counted(outcomes, s, finite, _spell=harness._spelled_schedule, **fields):
        spelled.append({"strategy": json.loads(fields["strategy"]), "drop": fields["drop"],
                        "se_ul": outcomes.se_ul[s].tolist(), "se_dl": outcomes.se_dl[s].tolist(),
                        "sum_se": float(outcomes.sum_se[s])})
        return _spell(outcomes, s, finite, **fields)

    monkeypatch.setattr(harness, "_spelled_schedule", counted)
    return spelled


@pytest.fixture
def solved(monkeypatch):
    """The Outcomes of every harness.solve call, in order."""
    results = []

    def recorded(*args, _solve=harness.solve):
        results.append(_solve(*args))
        return results[-1]

    monkeypatch.setattr(harness, "solve", recorded)
    return results


def chunk_records(cfg, lo, hi):
    """harness._run_chunk's result for drops lo..hi-1, and the records its
    lines hold, read back (one list per drop)."""
    chunk = harness._run_chunk(cfg, lo, hi)
    return chunk, [[json.loads(line) for line in text.splitlines()] for text in chunk[2]]


def drop_records(cfg, k):
    """The records harness._run_chunk writes of drop k alone."""
    [records] = chunk_records(cfg, k, k + 1)[1]
    return records


def dumped(records):
    """The records.jsonl text of records: json.dumps of each, sorted keys."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def metric_rows(records):
    return [[r[metric] for metric in harness.METRIC_NAMES] for r in records]


def spelled_line(schedule, mu, objective, weight_mode):
    """The records.jsonl line of a _spelled_schedule result under one
    objective, assembled as _run_chunk assembles it."""
    head, middle, tail, end = schedule[:4]
    return (f"{head}{json.dumps(mu)}{middle}{_json_float(float.__repr__(objective))}"
            f"{tail}{json.dumps(weight_mode)}{end}")


def chunk_spellings(table, chunks=1):
    """The spellings _run_chunk hands over with a (drops, objectives,
    strategies, METRIC_NAMES) table cut into that many chunks of drops: per
    chunk, the repr of each entry, one "\n"-joined text per column."""
    return [[[["\n".join(map(repr, column.tolist())) for column in combo] for combo in part]
             for part in chunk.transpose(1, 2, 3, 0)]
            for chunk in np.array_split(table, chunks)]


def tiny_config(out_dir, iterations=4, parallelism=1, **params_kw):
    defaults = dict(num_ul=2, num_dl=2, num_channels=2, rng_seed=7)
    defaults.update(params_kw)
    return ExperimentConfig(
        params=ScenarioParams(**defaults),
        strategies=("C-HUN", "R-EPA"),
        mu_values=(0.1, 0.9),
        weight_modes=(WeightMode.SUM_RATE,),
        iterations=iterations,
        out_dir=str(out_dir),
        parallelism=parallelism,
        name="tiny",
    )


def read_deterministic_outputs(out_dir):
    """All result files; excludes the wall-clock sidecar and the config
    echo (which records run-specific paths and parallelism)."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name in ("timing.log", "config.json") or path.is_dir():
            continue
        files[path.name] = path.read_text()
    return files


class TestConfigChecksItself:
    """ExperimentConfig checks its config-level rules when it is built, by
    its constructor or by dataclasses.replace."""

    def test_canned_configs_are_valid(self):
        for name in ("fig2", "fig3"):
            cfg = canned_experiments(name)
            assert require_valid_config(cfg) is cfg

    def test_p_opt_runs_at_the_fig3_cell(self, tmp_path):
        # P-OPT has no size limit: at 25+25 it is a valid strategy, runs,
        # and never scores below C-HUN on a drop
        cfg = canned_experiments("fig3", iterations=2, out_dir=str(tmp_path))
        run_experiment(dataclasses.replace(cfg, strategies=("P-OPT", "C-HUN")))
        best = {}
        for line in (tmp_path / "records.jsonl").read_text().splitlines():
            r = json.loads(line)
            best.setdefault((r["drop"], r["weight_mode"]), {})[r["strategy"]] = r["objective"]
        assert len(best) == 4
        for by_strategy in best.values():
            assert by_strategy["P-OPT"] >= by_strategy["C-HUN"] * (1 - 1e-12)

    @staticmethod
    def rejected(*messages):
        """pytest.raises for the ConfigError that lists exactly messages."""
        return pytest.raises(ConfigError, match="^" + re.escape(
            f"invalid experiment config: {'; '.join(messages)}") + "$")

    def test_unknown_strategy_flagged(self):
        with self.rejected("unknown strategy 'BOGUS' in strategies"):
            dataclasses.replace(canned_experiments("fig2"), strategies=("BOGUS",))

    @pytest.mark.parametrize("field, values, message", [
        ("strategies", ("C-HUN", "P-OPT", "C-HUN"), "duplicate entry 'C-HUN' in strategies"),
        ("mu_values", (0.5, 0.1, 0.5, 0.5), "duplicate entry 0.5 in mu_values"),
        ("weight_modes", (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION,
                          WeightMode.SUM_RATE), "duplicate entry 'SR' in weight_modes"),
    ], ids=["strategies", "mu_values", "weight_modes"])
    def test_duplicate_sweep_entry_flagged(self, field, values, message):
        # a repeated entry would write every record of its combination twice
        with self.rejected(message):
            dataclasses.replace(canned_experiments("fig2"), **{field: values})

    @pytest.mark.parametrize("field", ["strategies", "mu_values", "weight_modes"])
    def test_empty_sweep_flagged(self, field):
        with self.rejected(f"at least one entry required in {field}"):
            dataclasses.replace(canned_experiments("fig2"), **{field: ()})

    def test_mu_out_of_range_flagged(self):
        with self.rejected("mu_values: mu must lie in [0, 1], got 1.5",
                           "mu_values: mu must lie in [0, 1], got nan"):
            dataclasses.replace(canned_experiments("fig2"),
                                mu_values=(0.5, 1.5, float("nan"), -0.0))

    @pytest.mark.parametrize("build", [
        lambda: ExperimentConfig(iterations=0, parallelism=0),
        lambda: dataclasses.replace(ExperimentConfig(), iterations=0, parallelism=0),
    ], ids=["constructor", "replace"])
    def test_every_broken_rule_in_one_error(self, build):
        with self.rejected("iterations must be >= 1, got 0",
                           "parallelism must be >= 1, got 0"):
            build()


class TestCannedExperiments:
    def test_fig2_shape(self):
        cfg = canned_experiments("fig2")
        assert cfg.params.num_ul == cfg.params.num_dl == cfg.params.num_channels == 4
        assert cfg.mu_values == (0.1, 0.5, 0.9)
        assert cfg.strategies == ("P-OPT", "C-HUN")
        assert cfg.weight_modes == (WeightMode.SUM_RATE,)
        assert cfg.iterations == 400

    def test_fig3_shape(self):
        cfg = canned_experiments("fig3")
        assert cfg.params.num_ul == cfg.params.num_dl == cfg.params.num_channels == 25
        assert cfg.mu_values == (0.9,)
        assert set(cfg.strategies) == {"C-HUN", "C-NINT", "R-EPA"}
        assert cfg.weight_modes == (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION)

    def test_all_canned_use_reference_constants(self):
        for name in ("fig2", "fig3"):
            p = canned_experiments(name).params
            assert p.si_cancellation == pytest.approx(1e-10)
            assert p.noise_power_w == pytest.approx(10 ** (-14.64))
            assert p.p_max_ul_w == pytest.approx(10 ** (-0.6))
            assert p.cell_radius_m == 100.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            canned_experiments("fig9")


class TestRunExperiment:
    def test_single_drop_single_strategy(self, tmp_path):
        cfg = ExperimentConfig(
            params=ScenarioParams(num_ul=2, num_dl=2, num_channels=2, rng_seed=1),
            strategies=("C-HUN",),
            mu_values=(0.5,),
            weight_modes=(WeightMode.SUM_RATE,),
            iterations=1,
            out_dir=str(tmp_path / "one"),
        )
        result = run_experiment(cfg)
        assert result["records"] == 1
        lines = (tmp_path / "one" / "records.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["strategy"] == "C-HUN"
        assert record["drop"] == 0
        assert "wall_time_s" not in record

    def test_parallelism_does_not_change_outputs(self, tmp_path):
        a = run_experiment(tiny_config(tmp_path / "serial", parallelism=1))
        b = run_experiment(tiny_config(tmp_path / "pool", parallelism=3))
        files_a = read_deterministic_outputs(tmp_path / "serial")
        files_b = read_deterministic_outputs(tmp_path / "pool")
        assert set(files_a) == set(files_b)
        for name in files_a:
            assert files_a[name] == files_b[name], f"{name} differs"

    def test_same_seed_same_bytes(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "a"))
        run_experiment(tiny_config(tmp_path / "b"))
        assert read_deterministic_outputs(tmp_path / "a") == \
            read_deterministic_outputs(tmp_path / "b")

    def test_different_seed_different_results(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "a"))
        run_experiment(tiny_config(tmp_path / "b", rng_seed=8))
        a = (tmp_path / "a" / "records.jsonl").read_text()
        b = (tmp_path / "b" / "records.jsonl").read_text()
        assert a != b

    def test_strategies_share_the_drop_gain_table(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "shared"))
        records = [json.loads(line) for line in
                   (tmp_path / "shared" / "records.jsonl").read_text().splitlines()]
        by_drop = {}
        for r in records:
            by_drop.setdefault(r["drop"], set()).add(r["gain_hash"])
        assert all(len(hashes) == 1 for hashes in by_drop.values())
        assert len(by_drop) == 4

    def test_cdf_files_and_summary(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "cdfs"))
        out = tmp_path / "cdfs"
        expected = out / "cdf_objective_C-HUN_mu0.1_SR.csv"
        assert expected.exists()
        header = expected.read_text().splitlines()[0]
        assert header == "# objective,C-HUN,0.1,SR"
        summary = json.loads((out / "summary.json").read_text())
        assert "objective|C-HUN|mu=0.1|SR" in summary["medians"]
        assert "objective|C-HUN-vs-R-EPA|mu=0.1|SR" in summary["gaps"]

    def test_r_epa_matching_is_paired_across_mu(self, tmp_path):
        # the same drop must reuse the same random matching for every mu
        cfg = tiny_config(tmp_path / "paired")
        run_experiment(cfg)
        records = [json.loads(line) for line in
                   (tmp_path / "paired" / "records.jsonl").read_text().splitlines()]
        repa = [r for r in records if r["strategy"] == "R-EPA"]
        by_drop_mu = {}
        for r in repa:
            by_drop_mu.setdefault(r["drop"], {})[r["mu"]] = r["se_ul"]
        for drop, per_mu in by_drop_mu.items():
            assert per_mu[0.1] == per_mu[0.9]

    def test_scenario_dump(self, tmp_path):
        cfg = dataclasses.replace(tiny_config(tmp_path / "dump", iterations=2),
                                  dump_scenarios=True)
        run_experiment(cfg)
        dumped = sorted((tmp_path / "dump" / "scenarios").iterdir())
        assert [p.name for p in dumped] == ["drop_0000.json", "drop_0001.json"]
        gains = load_scenario(dumped[0])
        assert gains.g_cross.shape == (2, 2)

    @pytest.mark.parametrize("seed", [4, 7, 123])
    @pytest.mark.parametrize("config, params", [
        ({}, {}),
        ({"num_ul": 25, "num_dl": 25, "num_channels": 25, "si_cancellation_db": -120.0},
         {"num_ul": 25, "num_dl": 25, "num_channels": 25,
          "si_cancellation": db_to_linear(-120.0)}),
    ], ids=["default", "25+25"])
    def test_scenario_dump_is_drop_zeros_gain_table(self, tmp_path, seed, config, params):
        run_experiment(config_from_dict({**config, "iterations": 1, "seed": seed,
                                         "dump_scenarios": True, "out_dir": str(tmp_path)}))
        gains = drop_gain_table(ScenarioParams(**params, rng_seed=seed), drop_rng(seed, 0, 0))
        path = tmp_path / "scenarios" / "drop_0000.json"
        assert path.read_text() == json.dumps(scenario_to_dict(gains), indent=1,
                                              sort_keys=True)
        loaded = load_scenario(path)
        for name in ("g_ul", "g_dl", "g_cross"):
            assert getattr(loaded, name).tobytes() == getattr(gains, name).tobytes()
        assert loaded.positions.ul.tobytes() == gains.positions.ul.tobytes()

    def test_summary_gaps_equal_the_median_gap_oracle(self, tmp_path):
        cfg = canned_experiments("fig2", iterations=20, out_dir=str(tmp_path))
        run_experiment(cfg)
        want = {}
        for metric, mu, (a, b) in itertools.product(
                ("objective", "sum_se", "min_se", "jain"), cfg.mu_values,
                itertools.permutations(cfg.strategies, 2)):
            cdf_a, cdf_b = (read_cdf_csv(tmp_path / f"cdf_{metric}_{s}_mu{mu}_SR.csv")[1]
                            for s in (a, b))
            key = f"{metric}|{a}-vs-{b}|mu={mu}|SR"
            try:
                want[key] = median_gap(cdf_a, cdf_b)
            except ZeroDivisionError:
                want[key] = None
        gaps = json.loads((tmp_path / "summary.json").read_text())["gaps"]
        assert gaps == want
        assert None in gaps.values() and any(gaps.values())

    def test_invalid_config_rejected(self, tmp_path):
        # rejected when built, so no run can start from it
        with pytest.raises(ConfigError):
            dataclasses.replace(tiny_config(tmp_path / "bad"), iterations=0)

    def test_runtime_failure_leaves_marker(self, tmp_path, monkeypatch):
        from fdsched import solvers

        def explode(gains, rngs, params, objectives):
            raise RuntimeError("boom")

        monkeypatch.setitem(solvers.STRATEGIES, "EXPLODE", explode)
        cfg = dataclasses.replace(tiny_config(tmp_path / "fail"),
                                  strategies=("EXPLODE",))
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        marker = tmp_path / "fail" / "FAILED"
        assert marker.exists()
        assert "boom" in marker.read_text()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_runtime_failure_keeps_finished_drops(self, tmp_path, monkeypatch,
                                                  parallelism):
        # workers fork after the patch, so the pool branch sees it too
        fail_at_drop(monkeypatch, 3)
        cfg = tiny_config(tmp_path / "fail", iterations=6, parallelism=parallelism)
        with pytest.raises(RuntimeError, match="drop 3 failed"):
            run_experiment(cfg)
        out = tmp_path / "fail"
        assert "drop 3 failed" in (out / "FAILED").read_text()
        drops = [json.loads(line)["drop"]
                 for line in (out / "records.jsonl").read_text().splitlines()]
        per_drop = len(cfg.strategies) * len(cfg.mu_values) * len(cfg.weight_modes)
        assert drops == [k for k in range(3) for _ in range(per_drop)]

    @pytest.mark.parametrize("failing", [1, 4])
    def test_serial_failure_keeps_earlier_drops_byte_for_byte(self, tmp_path, monkeypatch,
                                                              failing):
        cfg = tiny_config(tmp_path / "full", iterations=6)
        run_experiment(cfg)
        fail_at_drop(monkeypatch, failing)
        with pytest.raises(RuntimeError, match=f"drop {failing} failed"):
            run_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "fail")))
        per_drop = len(cfg.strategies) * len(cfg.mu_values) * len(cfg.weight_modes)
        full = (tmp_path / "full" / "records.jsonl").read_text().splitlines(keepends=True)
        kept = (tmp_path / "fail" / "records.jsonl").read_text()
        assert kept == "".join(full[:failing * per_drop])

    def test_rerun_clears_a_stale_failure_marker_and_cdfs(self, tmp_path, monkeypatch):
        from fdsched import solvers

        def explode(gains, rngs, params, objectives):
            raise RuntimeError("boom")

        def listing():
            return sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())

        out = tmp_path / "rerun"
        # 4 drops, mu 0.1 and 0.9
        run_experiment(dataclasses.replace(tiny_config(out), dump_scenarios=True))
        (out / "notes.txt").write_text("kept")
        (out / "old").mkdir()
        (out / "old" / "cdf_kept.csv").write_text("kept")
        (out / "scenarios" / "notes.txt").write_text("kept")
        kept = ["notes.txt", "old/cdf_kept.csv", "scenarios/notes.txt"]
        monkeypatch.setitem(solvers.STRATEGIES, "EXPLODE", explode)
        with pytest.raises(RuntimeError):
            run_experiment(dataclasses.replace(tiny_config(out), strategies=("EXPLODE",)))
        # nothing of the earlier run's results is left beside the new marker
        assert listing() == sorted(["FAILED", "config.json", "records.jsonl", *kept])
        assert (out / "records.jsonl").read_text() == ""
        result = run_experiment(dataclasses.replace(tiny_config(out, iterations=2),
                                                    mu_values=(0.1,), dump_scenarios=True))
        assert all("_mu0.1_" in name for name in result["cdf_files"])
        assert listing() == sorted([
            "config.json", "records.jsonl", "summary.json", "timing.log",
            "scenarios/drop_0000.json", "scenarios/drop_0001.json",
            *result["cdf_files"], *kept])
        assert json.loads((out / "summary.json").read_text())["iterations"] == 2
        for name in kept:
            assert (out / name).read_text() == "kept"


# One other valid value per ScenarioParams field, for tiny_config's 2+2 cell.
CHANGED_PARAMS = {
    "num_ul": 1, "num_dl": 1, "num_channels": 4, "cell_radius_m": 200.0,
    "noise_power_w": 1e-13, "si_cancellation": 1e-12, "p_max_ul_w": 0.1,
    "p_max_dl_w": 0.1, "min_bs_ue_distance_m": 40.0, "rng_seed": 8,
}


class TestEveryParamMatters:
    """Every ScenarioParams field must change what a run writes."""

    def test_every_field_has_a_changed_value(self):
        assert set(CHANGED_PARAMS) == {f.name for f in dataclasses.fields(ScenarioParams)}

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ScenarioParams)])
    def test_field_changes_the_records(self, tmp_path, field):
        base = tiny_config(tmp_path / "base", iterations=3)
        changed = tiny_config(tmp_path / "changed", iterations=3,
                              **{field: CHANGED_PARAMS[field]})
        assert getattr(changed.params, field) != getattr(base.params, field)
        run_experiment(base)
        run_experiment(changed)
        assert ((tmp_path / "base" / "records.jsonl").read_bytes()
                != (tmp_path / "changed" / "records.jsonl").read_bytes())


class TestObjectiveFreeRescoring:
    """Each strategy is solved once per drop for all (mu, mode) objectives,
    and R-EPA's schedule is rescored for each; the records must equal those
    of a fresh solve per combination."""

    @pytest.mark.parametrize("num_ul, num_dl, num_channels",
                             [(4, 4, 4), (25, 25, 25), (3, 5, 6)])
    @pytest.mark.parametrize("strategies", [("R-EPA", "C-HUN"), ("C-HUN", "R-EPA")])
    def test_records_equal_the_per_combination_loop(self, tmp_path, num_ul, num_dl,
                                                    num_channels, strategies):
        cfg = dataclasses.replace(
            tiny_config(tmp_path, num_ul=num_ul, num_dl=num_dl, num_channels=num_channels),
            strategies=strategies, mu_values=(0.1, 0.5, 0.9),
            weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION))
        for k in range(3):
            got = drop_records(cfg, k)
            want = reference_drop_records(cfg, k)
            assert got == want
        assert len({r["objective"] for r in got if r["strategy"] == "R-EPA"}) == 6

    def test_an_objective_free_schedule_is_spelled_once(self, tmp_path, schedules, solved):
        cfg = dataclasses.replace(
            tiny_config(tmp_path, num_ul=3, num_dl=5, num_channels=6),
            strategies=("C-HUN", "R-EPA"), mu_values=(0.1, 0.5, 0.9),
            weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION))
        for k in range(3):
            schedules.clear()
            solved.clear()
            records = drop_records(cfg, k)
            assert solved[1].schedule.tolist() == [[0] * 6]
            [cut] = [fields for fields in schedules if fields["strategy"] == "R-EPA"]
            repa = [r for r in records if r["strategy"] == "R-EPA"]
            assert len(repa) == 6
            assert all(r["se_ul"] == cut["se_ul"] and r["se_dl"] == cut["se_dl"] for r in repa)


class TestChunkEqualsItsDrops:
    """A chunk's weights, corner tables and pair scores are array passes over
    all of its drops; its records must equal those of each drop solved alone,
    for every strategy, at the edge shapes: I != J, spare channels, an empty
    side, stacks wide enough to prune and extreme self-interference."""

    @pytest.mark.parametrize("params", [
        dict(num_ul=4, num_dl=4, num_channels=4),
        dict(num_ul=3, num_dl=5, num_channels=6),
        dict(num_ul=0, num_dl=3, num_channels=3),
        dict(num_ul=3, num_dl=0, num_channels=3),
        # 10 x 36 rectangles, 10 * 26 spare entries: past the pruning gate
        dict(num_ul=10, num_dl=30, num_channels=36),
        dict(num_ul=4, num_dl=4, num_channels=4, si_cancellation=db_to_linear(-130.0)),
    ], ids=["4+4/4", "3+5/6", "0+3/3", "3+0/3", "10+30/36", "4+4@-130dB"])
    def test_records_equal_each_drop_solved_alone(self, tmp_path, params):
        cfg = dataclasses.replace(
            tiny_config(tmp_path, **params), strategies=("P-OPT", "C-HUN", "C-NINT", "R-EPA"),
            mu_values=(0.1, 0.5, 0.9),
            weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION))
        _, _, texts, table, _, scenarios, _ = harness._run_chunk(cfg, 0, 4)
        assert len(texts) == 4 and scenarios is None
        assert table.shape == (4, 6, 4, len(harness.METRIC_NAMES))
        for k, (text, drop_table) in enumerate(zip(texts, table)):
            want = reference_drop_records(cfg, k)
            assert text == dumped(want)
            assert drop_table.reshape(-1, len(harness.METRIC_NAMES)).tolist() == metric_rows(want)

    @pytest.mark.parametrize("iterations", [10, 30])
    def test_weights_and_corner_tables_are_made_once_per_chunk(self, tmp_path, monkeypatch,
                                                               iterations):
        # counting wrappers installed as the benchmark's tracer installs its
        # timing ones; canned fig3 runs of one chunk: 3 strategies x 2 weight
        # modes, and corner tables for C-HUN and C-NINT, however many drops
        from fdsched import solvers

        calls = dict.fromkeys(("make_weights", "corner_tables"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(solvers, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(solvers, name, counted)
        cfg = canned_experiments("fig3", iterations=iterations, out_dir=str(tmp_path))
        run_experiment(cfg)
        assert len((tmp_path / "timing.log").read_text().splitlines()) == 2   # one chunk
        assert calls == {"make_weights": 6, "corner_tables": 2}


class TestRepeatedSchedules:
    """On fig2 most objectives after a solve's first choose a schedule that
    an earlier one chose; it is evaluated once, spelled once per (drop,
    strategy, schedule row), and every line of the row reads that spelling."""

    def test_a_schedule_is_spelled_once_per_drop(self, tmp_path, schedules, solved):
        cfg = canned_experiments("fig2", seed=5, iterations=6, out_dir=str(tmp_path))
        shared = 0
        for k in range(cfg.iterations):
            schedules.clear()
            solved.clear()
            records = drop_records(cfg, k)
            for name, o in zip(cfg.strategies, solved):
                [rows] = o.schedule.tolist()
                cut = [(f["se_ul"], f["se_dl"], f["sum_se"])
                       for f in schedules if f["strategy"] == name and f["drop"] == k]
                assert cut == [(o.se_ul[s].tolist(), o.se_dl[s].tolist(), float(o.sum_se[s]))
                               for s in dict.fromkeys(rows)]
                own = [r for r in records if r["strategy"] == name]
                assert [(r["se_ul"], r["se_dl"]) for r in own] == [
                    (o.se_ul[s].tolist(), o.se_dl[s].tolist()) for s in rows]
                shared += len(rows) - len(cut)
        assert shared > 0

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_written_lines_equal_json_dumps(self, tmp_path, parallelism, schedules):
        cfg = canned_experiments("fig2", seed=5, iterations=6, out_dir=str(tmp_path),
                                 parallelism=parallelism)
        run_experiment(cfg)
        want = [json.dumps(r, sort_keys=True)
                for k in range(cfg.iterations) for r in reference_drop_records(cfg, k)]
        assert (tmp_path / "records.jsonl").read_text() == "\n".join(want) + "\n"
        # one spelling per evaluated schedule; every other line reads one.
        # Forked workers spell their own drops, so the parent spells none.
        if parallelism == 1:
            assert 0 < len(schedules) < len(want)
        else:
            assert schedules == []


class TestEncodedLines:
    """A record's line is _LAYOUT filled with its schedule's spellings and its
    objective's; every written line must equal json.dumps of its record with
    sorted keys, and every CDF value the repr its record was spelled from."""

    @pytest.mark.parametrize("strategies", [("R-EPA", "C-HUN"), ("C-HUN", "R-EPA")])
    @pytest.mark.parametrize("mu_values", [(0.5,), (0.1, 0.5, 0.9)])
    @pytest.mark.parametrize("weight_modes", [
        (WeightMode.SUM_RATE,), (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION)])
    def test_lines_equal_json_dumps_of_the_records(self, tmp_path, strategies, mu_values,
                                                   weight_modes):
        cfg = dataclasses.replace(tiny_config(tmp_path, num_ul=3, num_dl=4, num_channels=5),
                                  strategies=strategies, mu_values=mu_values,
                                  weight_modes=weight_modes)
        (_, _, texts, table, spellings, _, _), records = chunk_records(cfg, 0, 3)
        assert [len(drop) for drop in records] == [
            len(strategies) * len(mu_values) * len(weight_modes)] * 3
        assert texts == [dumped(drop) for drop in records]
        assert table.reshape(-1, len(harness.METRIC_NAMES)).tolist() == [
            row for drop in records for row in metric_rows(drop)]
        assert [spellings] == chunk_spellings(table)
        assert [r for drop in records for r in drop] == [
            r for k in range(3) for r in reference_drop_records(cfg, k)]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_written_file_equals_the_fresh_solve_records(self, tmp_path, parallelism):
        cfg = dataclasses.replace(
            tiny_config(tmp_path, iterations=5, parallelism=parallelism),
            strategies=("R-EPA", "C-HUN"), mu_values=(0.1, 0.5, 0.9),
            weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION))
        run_experiment(cfg)
        want = [json.dumps(r, sort_keys=True)
                for k in range(cfg.iterations) for r in reference_drop_records(cfg, k)]
        assert (tmp_path / "records.jsonl").read_text() == "\n".join(want) + "\n"

    def test_spelled_line_with_tricky_reprs(self):
        # every line of one spelled schedule, with the two modes' spellings
        # alternating, and SE rows spelled in either form
        outcomes = Outcomes(
            schedule=np.zeros((1, 1)), objective=np.zeros((1, 1)), partner_ul=[[-1, -1]],
            p_ul=np.ones((1, 2)), p_dl=np.ones((1, 2)), se_ul=[[0.25, 1.5]],
            se_dl=[[2.25, -0.0]], sum_se=[4.0], min_se=[-0.0], jain=[0.75])
        fields = dict(drop=3, strategy="R-EPA", sum_se=4.0, min_se=-0.0, jain=0.75,
                      se_ul=[0.25, 1.5], se_dl=[2.25, -0.0], seed="7:3", gain_hash="0123abcd")
        tricky = [-0.0, 5e-324, 1e22, 0.1 + 0.2, 1.0, float("nan"), float("-inf")]
        for finite in (True, False):
            schedule = _spelled_schedule(outcomes, 0, finite, drop="3", strategy='"R-EPA"',
                                         seed='"7:3"', gain_hash='"0123abcd"')
            assert schedule[4:] == ("4.0", "-0.0", "0.75")
            for mu, objective, mode in itertools.product(tricky, tricky, ("PL", "SR")):
                record = {**fields, "mu": mu, "objective": objective, "weight_mode": mode}
                assert spelled_line(schedule, mu, objective, mode) == json.dumps(
                    record, sort_keys=True)

    @pytest.mark.parametrize("mu, spelling", [(-0.0, '"mu": -0.0'), (0.0, '"mu": 0.0')])
    def test_mu_is_spelled_as_configured(self, tmp_path, mu, spelling):
        # 0.0 and -0.0 are equal floats with different spellings
        cfg = dataclasses.replace(tiny_config(tmp_path), mu_values=(mu,),
                                  weight_modes=tuple(WeightMode))
        (_, _, texts, _, _, _, _), _ = chunk_records(cfg, 0, 2)
        lines = "".join(texts).splitlines()
        assert len(lines) == 2 * 2 * 2 and all(spelling in line for line in lines)
        assert texts == [dumped(reference_drop_records(cfg, k)) for k in range(2)]

    def test_the_layout_holds_the_records_keys_in_sorted_order(self, tmp_path):
        # a new record field is one more slot of _LAYOUT, in key order
        record = reference_drop_records(tiny_config(tmp_path), 0)[0]
        keys = [field for _, field, _, _ in string.Formatter().parse(_LAYOUT) if field]
        assert keys == sorted(record)
        assert _LAYOUT.format(**{key: json.dumps(value) for key, value in record.items()}) == (
            json.dumps(record, sort_keys=True))

    def test_json_float_of_a_repr_matches_json_dumps(self):
        values = [0.0, -0.0, 1e-320, 1e22, sys.float_info.max, float("nan"),
                  float("inf"), float("-inf"), np.float64(0.1)]
        for x in values:
            assert _json_float(float.__repr__(x)) == json.dumps(x)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_non_finite_values_and_signed_zeros_spell_from_one_repr(self, tmp_path, monkeypatch,
                                                                     parallelism):
        # every SE, metric and objective of the patched outcomes is NaN, an
        # infinity, -0.0, 0.0 or 1.5: records.jsonl spells them as json.dumps
        # does (NaN, Infinity), the CDF files as repr does (nan, inf), and
        # the CDF rows keep np.sort's order of each column
        tricky = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5])

        def cycled(shape, shift):
            return tricky[(np.arange(math.prod(shape)) + shift) % len(tricky)].reshape(shape)

        def patched(*args, _solve=harness.solve):
            o = _solve(*args)
            return dataclasses.replace(
                o, se_ul=cycled(o.se_ul.shape, 0), se_dl=cycled(o.se_dl.shape, 1),
                sum_se=cycled(o.sum_se.shape, 2), min_se=cycled(o.min_se.shape, 3),
                jain=cycled(o.jain.shape, 4), objective=cycled(o.objective.shape, 5))

        monkeypatch.setattr(harness, "solve", patched)
        cfg = tiny_config(tmp_path, iterations=12, parallelism=parallelism)
        run_experiment(cfg)
        text = (tmp_path / "records.jsonl").read_text()
        records = [json.loads(line) for line in text.splitlines()]
        assert text == dumped(records)
        assert all(word in text for word in ("NaN", "-Infinity", "Infinity", "-0.0", "0.0"))
        spelled = set()
        for mode, mu, strategy, metric in itertools.product(
                cfg.weight_modes, cfg.mu_values, cfg.strategies, harness.METRIC_NAMES):
            column = [r[metric] for r in records if (r["weight_mode"], r["mu"], r["strategy"])
                      == (mode.value, mu, strategy)]
            path = tmp_path / f"cdf_{metric}_{strategy}_mu{mu}_{mode.value}.csv"
            assert path.read_text().splitlines()[2:] == TestCdfFiles.rows(column)
            spelled |= {line.split(",")[0] for line in path.read_text().splitlines()[2:]}
        assert {"nan", "inf", "-inf", "-0.0", "0.0"} <= spelled


class TestRecordsFile:
    """records.jsonl grows a chunk at a time as the chunks are merged; the
    run never holds it whole."""

    def test_merges_allocate_a_small_share_of_the_file(self, tmp_path, monkeypatch):
        # 10 chunks of 10 drops.  Tracing runs from the first merge on, so
        # each merge's peak counts what the run kept since then (a chunk's
        # text, made after tracing began, and anything held run-long) on top
        # of the merge's own allocations; the gain-table builder's
        # temporaries between merges (about 0.45 MB a chunk) do not count
        cfg = ExperimentConfig(
            params=ScenarioParams(num_ul=25, num_dl=25, num_channels=25, rng_seed=3),
            strategies=("R-EPA",), mu_values=(0.1, 0.5, 0.9),
            weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION),
            iterations=100, out_dir=str(tmp_path))
        monkeypatch.setattr(harness, "_chunk_drops", lambda cfg: (10, 1))
        merges = []

        def traced(*args, _merge=harness._merge_chunk):
            if not merges:
                tracemalloc.start()
            tracemalloc.reset_peak()
            _merge(*args)
            merges.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(harness, "_merge_chunk", traced)
        try:
            run_experiment(cfg)
        finally:
            tracemalloc.stop()
        size = (tmp_path / "records.jsonl").stat().st_size
        assert len(merges) == 10 and size > 500_000
        assert max(merges) < size / 4

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_cdfs_and_summary_equal_those_of_the_fresh_solve_records(self, tmp_path,
                                                                     parallelism):
        cfg = dataclasses.replace(
            tiny_config(tmp_path / "run", iterations=7, parallelism=parallelism,
                        num_ul=3, num_dl=4, num_channels=5),
            strategies=("P-OPT", "R-EPA", "C-HUN"), mu_values=(0.9, 0.1),
            weight_modes=(WeightMode.PATH_LOSS_COMPENSATION, WeightMode.SUM_RATE))
        result = run_experiment(cfg)
        want = reference_cdfs_and_summary(
            cfg, [r for k in range(cfg.iterations) for r in reference_drop_records(cfg, k)])
        got = {name: text for name, text in read_deterministic_outputs(tmp_path / "run").items()
               if name.startswith("cdf_") or name == "summary.json"}
        assert got == want and len(want) == len(result["cdf_files"]) + 1
        assert result["records"] == cfg.iterations * 3 * 2 * 2


class TestCdfFiles:
    """_write_cdfs_and_summary on hand-made (drops, objectives, strategies,
    METRIC_NAMES) tables and their entries' reprs, handed over in two chunks
    as _run_chunk hands them: a header line, then one value,probability row
    per sample in the order np.sort gives each column alone, every distinct
    column's rows joined once."""

    TRICKY = [-0.0, 5e-324, 1e308, 0.1 + 0.2, float("nan"), -1.5, 0.0, 1e-320]

    @staticmethod
    def write(out, table, strategies=("C-HUN",), mu_values=(0.9,),
              weight_modes=(WeightMode.SUM_RATE,)):
        cfg = ExperimentConfig(strategies=strategies, mu_values=mu_values,
                               weight_modes=weight_modes, out_dir=str(out))
        out.mkdir(parents=True, exist_ok=True)
        table = np.asarray(table, dtype=float).reshape(
            -1, len(mu_values) * len(weight_modes), len(strategies), 4)
        return cfg, harness._write_cdfs_and_summary(out, cfg, table,
                                                    chunk_spellings(table, min(len(table), 2)))

    @staticmethod
    def rows(column) -> list[str]:
        values = np.sort(np.asarray(column, dtype=float))
        return [f"{float(v)!r},{float(p)!r}"
                for v, p in zip(values, np.arange(1, len(values) + 1) / len(values))]

    def test_header_lines_and_labels(self, tmp_path):
        table = np.zeros((3, 4))
        table[:, 3] = [0.3, 0.1, 0.2]
        self.write(tmp_path, table)
        path = tmp_path / "cdf_jain_C-HUN_mu0.9_SR.csv"
        assert path.read_text().splitlines()[:2] == ["# jain,C-HUN,0.9,SR", "value,probability"]
        labels, cdf = read_cdf_csv(path)
        assert labels == ("jain", "C-HUN", 0.9, "SR")
        assert cdf.values.tolist() == [0.1, 0.2, 0.3]
        assert cdf.probabilities.tolist() == [1 / 3, 2 / 3, 1.0]

    def test_values_round_trip_exactly(self, tmp_path):
        # repr-based serialization must preserve doubles bit for bit
        table = np.random.default_rng(4).normal(size=(20, 4)) * math.pi
        self.write(tmp_path, table)
        for m, metric in enumerate(harness.METRIC_NAMES):
            _, cdf = read_cdf_csv(tmp_path / f"cdf_{metric}_C-HUN_mu0.9_SR.csv")
            assert cdf.values.tobytes() == np.sort(table[:, m]).tobytes()

    def test_serialization_is_deterministic(self, tmp_path):
        table = np.random.default_rng(3).normal(size=(50, 2, 1, 4))
        for out in ("a", "b"):
            self.write(tmp_path / out, table, strategies=("R-EPA",), mu_values=(0.1,),
                       weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION))
        assert (read_deterministic_outputs(tmp_path / "a")
                == read_deterministic_outputs(tmp_path / "b"))

    def test_tricky_values_keep_their_float_form(self, tmp_path):
        # NaN spells nan here (JSON's NaN is the records' spelling), -0.0
        # keeps its sign, subnormals and the largest exponents their repr
        table = np.array([self.TRICKY * 3] * 4).T
        self.write(tmp_path, table, mu_values=(0.1 + 0.2,))
        text = (tmp_path / "cdf_sum_se_C-HUN_mu0.30000000000000004_SR.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "# sum_se,C-HUN,0.30000000000000004,SR"
        assert lines[2:] == self.rows(self.TRICKY * 3) and text.endswith("\n")
        assert {"-0.0", "5e-324", "1e+308", "0.30000000000000004", "nan"} <= {
            line.split(",")[0] for line in lines[2:]}

    def test_columns_keep_the_order_of_each_column_sorted_alone(self, tmp_path):
        # -0.0 and 0.0 compare equal and NaN with nothing, so only the sort
        # decides where each lands; the table is sorted once along its drop
        # axis, and every file and median must be those of its column's own
        # 1-D np.sort
        rng = np.random.default_rng(5)
        table = rng.choice([-0.0, 0.0, 1.0, -2.5], size=(400, 2, 2, 4))
        table[rng.random(table.shape) < 0.1] = np.nan
        modes = (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION)
        cfg, (files, summary) = self.write(tmp_path, table, strategies=("C-HUN", "R-EPA"),
                                           mu_values=(0.5,), weight_modes=modes)
        assert len(files) == 16
        for (k, mode), (s, strategy), (m, metric) in itertools.product(
                enumerate(modes), enumerate(cfg.strategies), enumerate(harness.METRIC_NAMES)):
            column = table[:, k, s, m]
            lines = (tmp_path / f"cdf_{metric}_{strategy}_mu0.5_{mode.value}.csv").read_text()
            assert lines.splitlines()[2:] == self.rows(column)
            median = summary["medians"][f"{metric}|{strategy}|mu=0.5|{mode.value}"]
            assert repr(median) == repr(float(np.sort(column)[199]))
        assert any("-0.0" in line and "\n0.0," in line
                   for line in read_deterministic_outputs(tmp_path).values())

    def test_equal_columns_are_spelled_once(self, tmp_path, monkeypatch):
        # every distinct sorted column's reprs are put in order once
        # (_sorted_reprs); equal columns share its rows, while -0.0 and 0.0
        # columns stay apart
        spelled = []

        def counted(texts, values, sorted_values, _sort=harness._sorted_reprs):
            spelled.append(sorted_values.tobytes())
            return _sort(texts, values, sorted_values)

        monkeypatch.setattr(harness, "_sorted_reprs", counted)
        column = np.linspace(0.0, 1.0, 16)
        table = np.empty((16, 3, 2, 4))
        table[...] = column[:, None, None, None]
        table[:, 1] = column[::-1, None, None] * 2     # another column, equal up to order
        table[:, 2, :, :2] = 0.0
        table[:, 2, :, 2:] = -0.0
        files, _ = self.write(tmp_path, table, strategies=("C-HUN", "R-EPA"),
                              mu_values=(0.1, 0.5, 0.9))[1]
        assert len(files) == 24 and len(spelled) == len(set(spelled)) == 4
        texts = read_deterministic_outputs(tmp_path)
        assert texts["cdf_objective_C-HUN_mu0.9_SR.csv"].splitlines()[2:] == self.rows([0.0] * 16)
        assert texts["cdf_min_se_C-HUN_mu0.9_SR.csv"].splitlines()[2:] == self.rows([-0.0] * 16)


class TestStrategyGenerators:
    """Only R-EPA reads a drop's strategy generator; a run makes one per drop
    when R-EPA is among its strategies and none otherwise."""

    @pytest.mark.parametrize("strategies, made", [
        (("P-OPT", "C-HUN"), 0), (("C-HUN", "C-NINT"), 0), (("C-HUN", "R-EPA"), 5),
        (("R-EPA",), 5)])
    def test_generators_only_for_r_epa(self, tmp_path, monkeypatch, strategies, made):
        roles, real_drop_rngs = [], harness.drop_rngs

        def counted(master_seed, lo, hi, role):
            roles.extend((role, k) for k in range(lo, hi))
            return real_drop_rngs(master_seed, lo, hi, role)

        monkeypatch.setattr(harness, "drop_rngs", counted)
        run_experiment(dataclasses.replace(tiny_config(tmp_path, iterations=5),
                                           strategies=strategies))
        assert sorted(roles) == ([(harness._ROLE_SCENARIO, k) for k in range(5)]
                                 + [(harness._ROLE_STRATEGY, k) for k in range(made)])


class TestPoolBlocks:
    """Parallel runs fork one worker per contiguous block of drops."""

    @pytest.mark.parametrize("iterations", [7, 1])
    def test_outputs_identical_across_parallelism(self, tmp_path, iterations):
        outputs = {}
        for parallelism in (1, 2, 3):
            out = tmp_path / f"p{parallelism}"
            run_experiment(tiny_config(out, iterations=iterations,
                                       parallelism=parallelism))
            outputs[parallelism] = read_deterministic_outputs(out)
        names = set(outputs[1])
        assert {"records.jsonl", "summary.json"} <= names
        assert any(name.startswith("cdf_") for name in names)
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("shape", ["tiny", "fig3-lockstep"])
    @pytest.mark.parametrize("failing", [1, 3, 11])
    def test_failure_inside_a_block_keeps_earlier_drops(self, tmp_path, monkeypatch,
                                                        failing, shape, parallelism):
        # every block runs as one chunk, so the failing drop fails its chunk,
        # which is solved again one drop at a time; fig3-lockstep's chunks
        # are lockstep stacks of 20 or 40 problems
        from fdsched import assignment

        out = tmp_path / "fail"
        if shape == "tiny":
            cfg = tiny_config(out, iterations=20, parallelism=parallelism)
        else:
            monkeypatch.setattr(assignment, "_LOCKSTEP_MIN_PROBLEMS", 2)
            cfg = canned_experiments("fig3", seed=4, iterations=20, out_dir=str(out),
                                     parallelism=parallelism)
        assert harness._chunk_drops(cfg)[0] >= cfg.iterations
        run_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "full")))
        fail_at_drop(monkeypatch, failing)
        with pytest.raises(RuntimeError, match=f"drop {failing} failed") as excinfo:
            run_experiment(cfg)
        if parallelism > 1:
            assert "in _run_chunk" in str(excinfo.value.__cause__)  # worker traceback
        assert (out / "FAILED").read_text() == f"RuntimeError: drop {failing} failed\n"
        kept = (out / "records.jsonl").read_text().splitlines()
        per_drop = len(cfg.strategies) * len(cfg.mu_values) * len(cfg.weight_modes)
        assert [json.loads(line)["drop"] for line in kept] == [
            k for k in range(failing) for _ in range(per_drop)]
        full = (tmp_path / "full" / "records.jsonl").read_text().splitlines()
        assert kept == full[:failing * per_drop]

    def test_lockstep_fig3_outputs_identical_across_parallelism(self, tmp_path, monkeypatch):
        # one chunk's drops and 20 more: the serial run goes in two even
        # chunks, whose stacks (two problems a drop) all go to the lockstep
        # solver; the parallel blocks of half or a third of the drops are
        # one chunk each, all in lockstep too
        from fdsched import assignment

        lockstep = []
        monkeypatch.setattr(assignment, "_min_cost_assignments",
                            lambda *args, _solve=assignment._min_cost_assignments:
                            lockstep.append(len(args[0])) or _solve(*args))
        size, _ = harness._chunk_drops(canned_experiments("fig3"))
        half = (size + 20) // 2
        assert 2 * (2 * half // 3) >= assignment._LOCKSTEP_MIN_PROBLEMS and half <= size
        outputs = {}
        for parallelism in (1, 2, 3):
            out = tmp_path / f"p{parallelism}"
            run_experiment(canned_experiments("fig3", seed=12, iterations=2 * half,
                                              out_dir=str(out), parallelism=parallelism))
            outputs[parallelism] = {name: text.encode() for name, text
                                    in read_deterministic_outputs(out).items()}
        # the serial run's C-HUN and C-NINT stacks; workers count in their copies
        assert lockstep == [2 * half] * 4
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    def test_timing_log_has_one_line_per_block(self, tmp_path, monkeypatch):
        from fdsched import assignment

        cfg = tiny_config(tmp_path / "t", iterations=9, parallelism=2)
        # 3 drops of 2 stacked 2 x 2 benefits and a 2 + 2 user gain table
        monkeypatch.setattr(harness, "_CHUNK_BYTES", 3 * 8 * (2 * 4 + 4 + 3 * 4 + 2))
        monkeypatch.setattr(assignment, "_LOCKSTEP_MIN_PROBLEMS", 2)
        assert harness._chunk_drops(cfg) == (3, 1)
        run_experiment(cfg)
        lines = (tmp_path / "t" / "timing.log").read_text().splitlines()[1:]
        # 9 drops in 2 blocks, one per worker: edges at 9 * b // 2; each
        # block in the fewest near-equal chunks of up to 3 drops
        chunks = [line.split(":")[0] for line in lines[:4]]
        assert chunks == ["chunk 0-1", "chunk 2-3", "chunk 4-5", "chunk 6-8"]
        assert [line.split(":")[0] for line in lines[4:]] == ["drops 0-3", "drops 4-8"]
        assert all(" pid " in line and line.endswith(" s") for line in lines[4:])

    @pytest.mark.parametrize("second_block, status", [
        (lambda: os._exit(3), 3 << 8),                       # exits inside the block
        (lambda: ([], None, lambda: None), 1 << 8),          # a result pickle refuses
    ], ids=["exit", "unpicklable"])
    def test_worker_without_a_result_keeps_earlier_blocks(self, tmp_path, monkeypatch,
                                                           second_block, status):
        real_run_block = harness._run_block

        def run_block(cfg, lo, hi):
            return real_run_block(cfg, lo, hi) if lo == 0 else second_block()

        monkeypatch.setattr(harness, "_run_block", run_block)
        cfg = tiny_config(tmp_path / "fail", iterations=6, parallelism=2)
        pid = os.getpid()
        message = f"worker of drops 3-5 ended without a result (wait status {status})"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_experiment(cfg)
        assert os.getpid() == pid   # the worker never returned into this stack
        out = tmp_path / "fail"
        assert (out / "FAILED").read_text() == f"RuntimeError: the {message}\n"
        drops = [json.loads(line)["drop"]
                 for line in (out / "records.jsonl").read_text().splitlines()]
        per_drop = len(cfg.strategies) * len(cfg.mu_values) * len(cfg.weight_modes)
        assert drops == [k for k in range(3) for _ in range(per_drop)]

    @pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
    def test_an_early_exit_kills_and_reaps_every_worker(self, tmp_path, monkeypatch, stop):
        # drop 1 fails in block 0's worker, or the parent is interrupted while
        # it merges block 0; the workers of blocks 1 and 2 would sleep far
        # past the run
        real_run_block = harness._run_block

        def run_block(cfg, lo, hi):
            if lo > 0:
                time.sleep(60)
            return real_run_block(cfg, lo, hi)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "_run_block", run_block)
        if stop is RuntimeError:
            fail_at_drop(monkeypatch, 1)
        else:
            monkeypatch.setattr(harness, "_merge_chunk", interrupted)
        started = time.monotonic()
        with pytest.raises(stop) as excinfo:
            run_experiment(tiny_config(tmp_path / "stop", iterations=6, parallelism=3))
        if stop is RuntimeError:
            assert "in _run_chunk" in str(excinfo.value.__cause__)   # a failed block
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_cpu_time_counts_as_reaped_children(self, tmp_path):
        import resource

        def children_cpu_s():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        before = children_cpu_s()
        run_experiment(tiny_config(tmp_path / "cpu", iterations=40, parallelism=2))
        assert children_cpu_s() > before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("end", ["finished", "failed", "closed"])
    def test_the_parents_objects_are_frozen_only_while_workers_run(self, tmp_path,
                                                                    monkeypatch, end):
        # gc.freeze() before the first fork keeps the children's collections
        # off the parent's objects; every exit reaps the workers and unfreezes
        import gc

        assert gc.get_freeze_count() == 0
        cfg = tiny_config(tmp_path / end, iterations=6, parallelism=2)
        if end == "finished":
            run_experiment(cfg)
        elif end == "failed":
            fail_at_drop(monkeypatch, 4)
            with pytest.raises(RuntimeError, match="drop 4 failed"):
                run_experiment(cfg)
        else:
            chunks = harness._forked_chunks(cfg, [])
            assert next(chunks)[:2] == (0, 3)
            assert gc.get_freeze_count() > 0
            chunks.close()
        assert gc.get_freeze_count() == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_without_fork_a_parallel_run_is_serial(self, tmp_path, monkeypatch):
        run_experiment(tiny_config(tmp_path / "p1", iterations=5))
        monkeypatch.delattr(os, "fork")
        run_experiment(tiny_config(tmp_path / "p2", iterations=5, parallelism=2))
        assert (read_deterministic_outputs(tmp_path / "p2")
                == read_deterministic_outputs(tmp_path / "p1"))
        lines = (tmp_path / "p2" / "timing.log").read_text().splitlines()[1:]
        assert [line.split(":")[0] for line in lines] == ["chunk 0-4"]


# A process pool's packages, a worker's traceback capture and logging: a
# run's parent process needs none of them, serial or parallel, so it must
# not pay for importing them (README, "Runtime dependency").
POOL_PACKAGES = ("concurrent", "multiprocessing", "logging", "traceback")


class TestChunkSizes:
    """A chunk holds about harness._CHUNK_BYTES of gain tables and what its
    costliest strategy holds per drop (stacked benefits, and P-OPT's corner
    tables and pair minima), but where the stacks go to the lockstep
    solver, enough drops for a stack to reach the lockstep gate."""

    @pytest.mark.parametrize("doc, expect", [
        ({"num_ul": 25, "num_dl": 25, "num_channels": 25,
          "strategies": ["C-HUN", "C-NINT", "R-EPA"], "mu_values": [0.9],
          "weight_modes": ["SR", "PL"]}, "budget"),                         # canned fig3's cell
        ({"num_ul": 10, "num_dl": 14, "num_channels": 20, "strategies": ["P-OPT", "C-HUN"],
          "mu_values": [0.5, 0.9], "weight_modes": ["SR", "PL"]}, "budget"),  # spare channels
        ({"num_ul": 40, "num_dl": 80, "num_channels": 96,
          "strategies": ["C-HUN", "C-NINT", "R-EPA"]}, "pruned"),
        ({"num_ul": 25, "num_dl": 25, "num_channels": 25, "strategies": ["R-EPA"],
          "mu_values": [0.1, 0.5, 0.9], "weight_modes": ["SR", "PL"]}, "unstacked"),
        ({"num_ul": 100, "num_dl": 100, "num_channels": 100, "strategies": ["C-HUN"]}, "gate"),
    ], ids=["25+25", "10+14/20", "40+80/96", "R-EPA", "100+100"])
    def test_a_chunk_fits_its_byte_budget_or_reaches_the_gate(self, monkeypatch, doc, expect):
        # one drop's arrays as a run builds them: its gain table and, per
        # strategy, its largest stack of benefits and P-OPT's corner tables
        # and pair minima (one entry per pair, as paired_se_dl)
        from fdsched import assignment, solvers

        stacks, tables, corners = [], [], []
        monkeypatch.setattr(assignment, "_max_assignments",
                            lambda rects, _solve=assignment._max_assignments:
                            stacks.append(rects) or _solve(rects))
        monkeypatch.setattr(harness, "build_gain_table",
                            lambda *args, _build=harness.build_gain_table:
                            tables.append(_build(*args)) or tables[-1])
        monkeypatch.setattr(solvers, "corner_tables",
                            lambda *args, _make=solvers.corner_tables:
                            corners.append(_make(*args)) or corners[-1])
        cfg = config_from_dict(doc)
        held, counts = [], []
        for name in cfg.strategies:
            stacks.clear()
            corners.clear()
            harness._run_chunk(dataclasses.replace(cfg, strategies=(name,)), 0, 1)
            held.append(max((rects.nbytes for rects in stacks), default=0) + sum(
                a.nbytes for t in corners if name == "P-OPT"
                for a in (t.paired_se_ul, t.paired_se_dl, t.paired_se_dl, t.solo_se_ul,
                          t.solo_se_dl)))
            counts.extend(len(rects) for rects in stacks)
        gains = tables[0]
        drop_bytes = max(held) + sum(
            a.nbytes for a in (gains.g_ul, gains.g_dl, gains.g_cross, gains.positions.bs,
                               gains.positions.ul, gains.positions.dl))
        most, least = harness._chunk_drops(cfg)
        assert most * drop_bytes <= harness._CHUNK_BYTES < (most + 1) * drop_bytes
        if expect in ("budget", "gate"):
            assert least == -(-assignment._LOCKSTEP_MIN_PROBLEMS // max(counts))
            assert (most >= least) == (expect == "budget")
        elif expect == "pruned":   # no stack is solved in lockstep, so the gate sets no floor
            assert least == 1 and most * max(counts) < assignment._LOCKSTEP_MIN_PROBLEMS
        else:
            assert least == 1 and counts == []

    def test_a_fig2_chunk_covers_a_worker_block(self):
        # P-OPT's corner tables count, but a 240-drop run at parallelism 2
        # still solves each worker's 120 drops as one chunk
        assert harness._chunk_drops(canned_experiments("fig2"))[0] >= 120

    @pytest.mark.parametrize("doc, sizes, drops, chunks", [
        # fig3's chunks hold 64 drops at most and need 25 for the gate, so
        # 84 drops are two chunks of 42: a 20-drop tail's stacks of 40
        # would fall below the lockstep gate
        ({}, (64, 25), 84, [42, 42]),
        ({}, (64, 25), 60, [60]),
        ({}, (64, 25), 130, [43, 43, 44]),
        # a one-objective 100+100 C-HUN chunk needs 50 drops for the gate,
        # more than the byte budget's 6
        ({"num_ul": 100, "num_dl": 100, "num_channels": 100, "strategies": ["C-HUN"],
          "weight_modes": ["SR"]}, (6, 50), 60, [60]),
        ({"num_ul": 100, "num_dl": 100, "num_channels": 100, "strategies": ["C-HUN"],
          "weight_modes": ["SR"]}, (6, 50), 149, [74, 75]),
        ({"num_ul": 100, "num_dl": 100, "num_channels": 100, "strategies": ["C-HUN"],
          "weight_modes": ["SR"]}, (6, 50), 20, [20]),
    ], ids=["fig3-84", "fig3-60", "fig3-130", "100+100-60", "100+100-149", "100+100-20"])
    def test_a_block_goes_in_near_equal_chunks_that_keep_the_gate(self, monkeypatch, doc,
                                                                  sizes, drops, chunks):
        cfg = config_from_dict({**harness.CANNED["fig3"], **doc, "iterations": drops})
        assert harness._chunk_drops(cfg) == sizes
        monkeypatch.setattr(harness, "_run_chunk", lambda cfg, lo, hi: hi - lo)
        assert list(harness._solved_chunks(cfg, 0, drops)) == chunks
        assert list(harness._solved_chunks(cfg, 7, 7)) == []

    def test_a_run_without_stacked_problems_is_chunked_by_bytes(self, tmp_path):
        cfg = config_from_dict({"num_ul": 25, "num_dl": 25, "num_channels": 25,
                                "strategies": ["R-EPA"], "mu_values": [0.1, 0.5, 0.9],
                                "weight_modes": ["SR", "PL"], "iterations": 3,
                                "out_dir": str(tmp_path)})
        assert harness._chunk_drops(cfg) == (harness._CHUNK_BYTES // (8 * (25 * 25 + 3 * 50 + 2)), 1)
        run_experiment(cfg)
        lines = (tmp_path / "timing.log").read_text().splitlines()[1:]
        assert [line.split(":")[0] for line in lines] == ["chunk 0-2"]


class TestUnstackedChunks:
    """A run whose strategies stack no assignment (R-EPA only) goes in
    chunks of drops too, with the same outputs."""

    @staticmethod
    def config(out, parallelism=1):
        return config_from_dict({"num_ul": 25, "num_dl": 25, "num_channels": 25,
                                 "strategies": ["R-EPA"], "mu_values": [0.1, 0.9],
                                 "weight_modes": ["SR", "PL"], "iterations": 10, "seed": 3,
                                 "out_dir": str(out), "parallelism": parallelism})

    def test_outputs_identical_across_parallelism_and_chunk_sizes(self, tmp_path, monkeypatch):
        assert harness._chunk_drops(self.config(tmp_path))[0] >= 10   # one chunk a block
        outputs = []
        for parallelism in (1, 2, 3):
            out = tmp_path / f"p{parallelism}"
            run_experiment(self.config(out, parallelism))
            outputs.append(read_deterministic_outputs(out))
        for size, chunks in ((1, 10), (3, 4), (4, 3)):
            monkeypatch.setattr(harness, "_chunk_drops", lambda cfg, size=size: (size, 1))
            out = tmp_path / f"c{size}"
            run_experiment(self.config(out))
            outputs.append(read_deterministic_outputs(out))
            assert len((out / "timing.log").read_text().splitlines()) == 1 + chunks
        assert "records.jsonl" in outputs[0]
        assert all(output == outputs[0] for output in outputs[1:])

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_drop_that_cannot_be_placed_keeps_every_earlier_drop(self, tmp_path, monkeypatch,
                                                                   parallelism):
        # drop 6's scenario generator puts every candidate at (99, 99) m,
        # outside the hexagon; its chunk fails in the gain-table builder and
        # is solved again one drop at a time
        class Outside:
            def random(self, size=None, out=None):
                out.fill(0.995)
                return out

        run_experiment(self.config(tmp_path / "full"))
        def swapped(master_seed, lo, hi, role, _real=harness.drop_rngs):
            rngs = _real(master_seed, lo, hi, role)
            if role == harness._ROLE_SCENARIO and lo <= 6 < hi:
                rngs[6 - lo] = Outside()
            return rngs

        monkeypatch.setattr(harness, "drop_rngs", swapped)
        out = tmp_path / "fail"
        with pytest.raises(ValueError, match="could not place a UE inside the cell"):
            run_experiment(self.config(out, parallelism))
        assert (out / "FAILED").read_text().startswith("ValueError: could not place a UE")
        kept = (out / "records.jsonl").read_text().splitlines()
        assert [json.loads(line)["drop"] for line in kept] == [k for k in range(6)
                                                                for _ in range(4)]
        full = (tmp_path / "full" / "records.jsonl").read_text().splitlines()
        assert kept == full[:len(kept)]


def run_script(out_dir, parallelism):
    return ("from fdsched.harness import ExperimentConfig, run_experiment\n"
            "from fdsched.model import ScenarioParams\n"
            "cfg = ExperimentConfig(params=ScenarioParams(num_ul=2, num_dl=2, num_channels=2),\n"
            f"                       iterations=2, parallelism={parallelism},\n"
            f"                       out_dir={str(out_dir)!r})\n"
            "assert run_experiment(cfg)['records'] == 2\n")


class TestImportFootprint:
    def test_package_import_loads_no_pool(self):
        assert modules_after("import fdsched, fdsched.cli", *POOL_PACKAGES) == []

    def test_serial_run_loads_no_pool(self, tmp_path):
        assert modules_after(run_script(tmp_path, 1), *POOL_PACKAGES) == []

    def test_parallel_run_loads_no_pool(self, tmp_path):
        assert modules_after(run_script(tmp_path, 2), *POOL_PACKAGES) == []


class TestSeeding:
    SEEDS = [0, 1, 2, 5, 42, 2**31, 2**32 - 1, 2**32, 2**32 + 7, 2**64 + 3, 2**96 + 11,
             2**128 - 1, 2**128, 2**200 + 5, 12345678901234567890123]

    def test_substreams_are_stable(self):
        a = drop_rngs(42, 3, 4, 0)[0].random(4)
        b = drop_rngs(42, 3, 4, 0)[0].random(4)
        assert np.array_equal(a, b)

    def test_substreams_differ_across_drops_and_roles(self):
        base = drop_rngs(42, 0, 1, 0)[0].random(4)
        assert not np.array_equal(base, drop_rngs(42, 1, 2, 0)[0].random(4))
        assert not np.array_equal(base, drop_rngs(42, 0, 1, 1)[0].random(4))
        assert not np.array_equal(base, drop_rngs(43, 0, 1, 0)[0].random(4))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_equal_numpys_seed_sequence(self, seed):
        # seeds of one to seven 32-bit words, the last drop index that takes
        # one spawn-key word, and a role the harness does not use
        for role, (lo, hi) in itertools.product(
                (0, 1, 2), [(0, 50), (1000, 1010), (2**31 - 3, 2**31 + 3), (2**32 - 4, 2**32)]):
            rngs = drop_rngs(seed, lo, hi, role)
            assert len(rngs) == hi - lo
            for k, rng in zip(range(lo, hi), rngs):
                assert rng.bit_generator.state == drop_rng(seed, k, role).bit_generator.state

    def test_one_drop_calls_equal_numpys_seed_sequence(self):
        # the one-drop calls that retry a failed chunk, with the seeds
        # interleaved: each call's seed replaces the one pool kept, and a
        # seed's repeated calls hash its words once
        from fdsched import seeding

        for k, role in itertools.product((0, 7, 2**32 - 1), (0, 1)):
            for seed in self.SEEDS:
                [rng] = drop_rngs(seed, k, k + 1, role)
                assert rng.bit_generator.state == drop_rng(seed, k, role).bit_generator.state
        seeding._seed_pool.cache_clear()
        for k in range(5):
            drop_rngs(2**70 + 5, k, k + 1, 0)
        assert seeding._seed_pool.cache_info()[:2] == (4, 1)   # hits, misses

    def test_a_chunks_generators_equal_one_drop_calls(self):
        chunk = drop_rngs(2**70 + 5, 17, 40, 1)
        alone = [drop_rngs(2**70 + 5, k, k + 1, 1)[0] for k in range(17, 40)]
        assert [r.random(3).tolist() for r in chunk] == [r.random(3).tolist() for r in alone]
        assert drop_rngs(9, 5, 5, 0) == []

    @pytest.mark.parametrize("order", ["built", "C", "F"])
    def test_gain_hashes_equal_the_per_drop_reference(self, order):
        params = ScenarioParams(num_ul=3, num_dl=5, num_channels=6, rng_seed=11)
        chunk = build_gain_table(params, drop_rngs(11, 0, 7, 0))
        # as built, the chunk's arrays are strided views of one array; a
        # Fortran-ordered chunk's drops are not contiguous rows
        if order != "built":
            chunk = GainTable(*(np.asarray(a, order=order)
                                for a in (chunk.g_ul, chunk.g_dl, chunk.g_cross)))
        hashes = harness._gain_hashes(chunk)
        assert hashes == [gain_hash(chunk.drop(d)) for d in range(7)]
        assert len(set(hashes)) == 7

    def test_gain_hashes_copy_no_chunk_array(self):
        # copying a chunk's strided g_ul, g_dl and g_cross whole to hash them
        # raised a run's peak memory by about 2%
        params = ScenarioParams(num_ul=25, num_dl=25, num_channels=25, rng_seed=11)
        chunk = build_gain_table(params, drop_rngs(11, 0, 40, 0))
        tracemalloc.start()
        try:
            harness._gain_hashes(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunk.g_cross.nbytes / 10

    def test_a_run_makes_no_seed_sequence(self, tmp_path):
        # drop_rngs hashes the seeds itself: a serial and a parallel run
        # complete, with records equal to the reference's, in an interpreter
        # where numpy's SeedSequence and default_rng raise
        script = ("import numpy as np, numpy.random.bit_generator as bit_generator\n"
                  "def refused(*args, **kwargs):\n"
                  "    raise AssertionError('SeedSequence used')\n"
                  "np.random.SeedSequence = bit_generator.SeedSequence = refused\n"
                  "np.random.default_rng = refused\n")
        cfg = dataclasses.replace(tiny_config(tmp_path, iterations=5, rng_seed=2**70 + 5),
                                  strategies=("P-OPT", "C-HUN", "R-EPA"))
        for parallelism in (1, 2):
            out = tmp_path / f"p{parallelism}"
            script += ("from fdsched.harness import config_from_dict, run_experiment\n"
                       f"doc = {config_to_dict(cfg)!r}\n"
                       f"doc.update(out_dir={str(out)!r}, parallelism={parallelism})\n"
                       "run_experiment(config_from_dict(doc))\n")
        assert "fdsched.harness" in modules_after(script, "fdsched")
        want = [json.dumps(r, sort_keys=True)
                for k in range(cfg.iterations) for r in reference_drop_records(cfg, k)]
        for parallelism in (1, 2):
            records = (tmp_path / f"p{parallelism}" / "records.jsonl").read_text()
            assert records == "\n".join(want) + "\n"


class TestJsonConfig:
    def test_units_are_converted(self):
        cfg = config_from_dict({
            "num_ul": 2, "num_dl": 2, "num_channels": 2,
            "noise_dbm": -116.4, "si_cancellation_db": -100.0,
            "p_max_ul_dbm": 24.0, "p_max_dl_dbm": 24.0,
            "strategies": ["C-HUN"], "mu_values": [0.5],
            "weight_modes": ["SR", "PL"], "iterations": 1,
        })
        assert cfg.params.noise_power_w == pytest.approx(10 ** (-14.64))
        assert cfg.params.si_cancellation == pytest.approx(1e-10)
        assert cfg.params.p_max_ul_w == pytest.approx(10 ** (-0.6))
        assert cfg.weight_modes == (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION)

    def test_round_trip(self):
        cfg = canned_experiments("fig2", seed=5)
        again = config_from_dict(config_to_dict(cfg))
        assert again.params == cfg.params
        assert again.strategies == cfg.strategies
        assert again.mu_values == cfg.mu_values

    def test_round_trip_is_exact_on_a_dbm_grid(self):
        # config.json must load back to the same powers, or a rerun from it
        # could differ in the last bit
        for k in range(1701):
            dbm = round(-130.0 + 0.1 * k, 1)
            cfg = config_from_dict({"noise_dbm": dbm, "p_max_ul_dbm": dbm, "iterations": 1})
            assert config_from_dict(config_to_dict(cfg)).params == cfg.params, dbm

    def test_round_trip_is_exact_on_a_db_grid(self):
        # 10·log10 alone fails at -4.88, -4.3 and -4.19 dB
        for k in range(13001):
            db = round(-130.0 + 0.01 * k, 2)
            cfg = config_from_dict({"si_cancellation_db": db})
            assert config_from_dict(config_to_dict(cfg)).params == cfg.params, db

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"iterations": 1, "bogus_knob": 3})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"num_ul": 9, "num_dl": 2, "num_channels": 2})

    @pytest.mark.parametrize("key, value, message", [
        ("weight_modes", ["XX"], "config key 'weight_modes': unknown weight mode 'XX'"),
        ("strategies", ["X"], "unknown strategy 'X' in strategies"),
        ("mu_values", [2.0], "mu_values: mu must lie in [0, 1], got 2.0"),
        # drop 2**32 would take a second spawn-key word, which drop_rngs does not mix
        ("iterations", 2**32 + 1, "iterations must be <= 2**32, got 4294967297"),
    ], ids=["weight_modes", "strategies", "mu_values", "iterations"])
    def test_a_bad_value_names_its_key(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({key: value})
        assert message in str(exc.value)

    def test_cell_rules_are_reported_before_config_rules(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"num_ul": 9, "seed": -1, "iterations": 0})
        assert str(exc.value) == (
            "invalid experiment config: invalid scenario parameters: rng_seed must be "
            "nonnegative, got -1; num_ul (9) exceeds num_channels (4)")

    @pytest.mark.parametrize("key, value", [
        ("num_ul", 4.7), ("iterations", 2.9), ("seed", 1.5), ("num_channels", 4.0),
        ("parallelism", True), ("seed", "3"),
        ("p_max_ul_dbm", True), ("noise_dbm", "-116.4"),
        ("dump_scenarios", "false"), ("dump_scenarios", 0),
        ("strategies", "C-HUN"), ("mu_values", 0.5), ("weight_modes", "SR"),
        ("mu_values", [0.5, True]), ("mu_values", ["0.5"]),
        ("name", 5), ("name", ["a"]), ("name", None), ("out_dir", None), ("out_dir", 3),
        ("strategies", [["C-HUN"]]), ("strategies", [{"a": 1}]), ("weight_modes", [5]),
    ])
    def test_values_are_not_coerced(self, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            config_from_dict({"iterations": 1, key: value})

    @pytest.mark.parametrize("key", sorted(harness._KEYS))
    def test_every_key_changes_the_config(self, key):
        # FULL_CONFIG runs one drop, which is the default
        cfg = config_from_dict({key: {**FULL_CONFIG, "iterations": 2}[key]})
        assert cfg != config_from_dict({})
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_integers_are_valid_floats(self):
        cfg = config_from_dict({"iterations": 1, "cell_radius_m": 100, "p_max_ul_dbm": 24,
                                "mu_values": [0, 1]})
        default = config_from_dict({"iterations": 1, "mu_values": [0.0, 1.0]})
        assert cfg.params == default.params
        assert cfg.mu_values == (0.0, 1.0)

    @pytest.mark.parametrize("name", ["fig2", "fig3"])
    def test_canned_configs_round_trip_through_json(self, name):
        cfg = canned_experiments(name, seed=5)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_readme_config_round_trips(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Configuration file", 1)[1].split("```json\n", 1)[1]
        doc = json.loads(block.split("```", 1)[0])
        assert set(doc) == set(harness._KEYS)
        cfg = config_from_dict(doc)
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


# every config key, each off its default and valid on its own
FULL_CONFIG = {
    "name": "full", "cell_radius_m": 150.0, "num_ul": 3, "num_dl": 2, "num_channels": 6,
    "noise_dbm": -110.0, "si_cancellation_db": -90.0, "p_max_ul_dbm": 21.8,
    "p_max_dl_dbm": 30.0, "min_bs_ue_distance_m": 5.0, "strategies": ["C-NINT", "C-HUN"],
    "mu_values": [0.25, 0.75], "weight_modes": ["PL", "SR"], "iterations": 1, "seed": 11,
    "parallelism": 2, "out_dir": "results/full", "dump_scenarios": True,
}


class TestConfigJsonBytes:
    """sha256 of the config.json a run writes, for the canned studies at
    their defaults but one iteration, and for a config that sets every key.
    A relative out_dir keeps the machine's paths out of the file."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: canned_experiments("fig2", iterations=1),
         "5dda00bba54ec45f5439a11c402e0895aa618ed29facce1ad11458ebae08e2fd"),
        (lambda: canned_experiments("fig3", iterations=1),
         "5a87b842e0177b86d28442fb7f6205649b785ec7c2f17ea44d4a16063f645fe5"),
        (lambda: config_from_dict(FULL_CONFIG),
         "1ca0416e7551ddcbda211da7940f20b7aa53ad99dd2f75f20eaa186d422ae543"),
    ], ids=["fig2", "fig3", "full"])
    def test_config_json_digest(self, tmp_path, monkeypatch, make, digest):
        monkeypatch.chdir(tmp_path)
        cfg = make()
        run_experiment(cfg)
        written = (tmp_path / cfg.out_dir / "config.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest


class TestCli:
    def test_run_with_config_file(self, tmp_path, capsys):
        config = {
            "num_ul": 2, "num_dl": 2, "num_channels": 2,
            "strategies": ["C-HUN"], "mu_values": [0.5],
            "weight_modes": ["SR"], "iterations": 2, "seed": 3,
            "out_dir": str(tmp_path / "cli_out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "cli_out" / "summary.json").exists()

    def test_run_canned_override(self, tmp_path):
        code = main(["run", "--canned", "fig2", "--iters", "2", "--seed", "9",
                     "--out", str(tmp_path / "fig2")])
        assert code == 0
        cfg = json.loads((tmp_path / "fig2" / "config.json").read_text())
        assert cfg["iterations"] == 2 and cfg["seed"] == 9

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"num_ul": 2, "num_dl": 2, "num_channels": 2,
                                    "strategies": ["C-HUN"], "mu_values": [0.5],
                                    "weight_modes": ["SR"], "iterations": 1}))
        assert main(["validate", "--config", str(good)]) == 0
        assert capsys.readouterr().out == "OK\n"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"num_ul": 5, "num_dl": 2, "num_channels": 2}))
        assert main(["validate", "--config", str(bad)]) == 1

    def test_canned_run_rejects_parallelism_zero(self, tmp_path):
        code = main(["run", "--canned", "fig2", "--iters", "1", "--parallelism", "0",
                     "--out", str(tmp_path / "p0")])
        assert code == 1
        assert not (tmp_path / "p0" / "records.jsonl").exists()

    def test_carrier_key_is_rejected(self, tmp_path):
        # the path-loss laws fix the carrier at 2.5 GHz; no key may pretend
        # to change it
        path = tmp_path / "carrier.json"
        path.write_text(json.dumps({"carrier_ghz": 3.5, "iterations": 1,
                                    "out_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == 1
        assert not (tmp_path / "out").exists()

    def test_exit_code_for_config_error(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mu_values": [1.7], "iterations": 1}))
        assert main(["run", "--config", str(bad)]) == 1

    def test_exit_code_for_a_coerced_value(self, tmp_path, capsys):
        path = tmp_path / "float_users.json"
        path.write_text(json.dumps({"num_ul": 4.7, "iterations": 1,
                                    "out_dir": str(tmp_path / "out")}))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path)]) == 1
        assert "'num_ul' must be of type int, got 4.7" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_code_for_a_null_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "null_out.json"
        path.write_text(json.dumps({"iterations": 1, "out_dir": None}))
        assert main(["run", "--config", str(path)]) == 1
        assert "'out_dir' must be of type str, got None" in capsys.readouterr().err
        assert not (tmp_path / "None").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("seed", -1, "rng_seed must be nonnegative, got -1"),
        ("p_max_ul_dbm", float("inf"), "p_max_ul_w must be finite, got inf"),
        ("cell_radius_m", float("inf"), "cell_radius_m must be finite, got inf"),
        ("min_bs_ue_distance_m", float("nan"), "min_bs_ue_distance_m must be finite, got nan"),
        ("noise_dbm", float("inf"), "noise_power_w must be finite, got inf"),
        # a value whose unit conversion overflows is out of range, named with its key
        pytest.param("noise_dbm", 1e308, "config key 'noise_dbm': 1e+308 is out of range",
                     id="noise_dbm-overflow"),
        pytest.param("cell_radius_m", 10 ** 400,
                     f"config key 'cell_radius_m': {10 ** 400} is out of range",
                     id="cell_radius_m-overflow"),
    ])
    def test_exit_code_for_an_out_of_range_value(self, tmp_path, capsys, key, value,
                                                 message):
        # json writes inf and nan as Infinity and NaN, which json.loads reads
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: value, "iterations": 1,
                                    "out_dir": str(tmp_path / "out")}))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--canned", "fig2", "--iters", "1", "--seed", "-3"],
        ["run", "--config", "{config}", "--seed", "-3"],
    ], ids=["run-canned", "run-config"])
    def test_exit_code_for_a_negative_seed_flag(self, tmp_path, capsys, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"iterations": 1, "seed": 4}))
        argv = [arg.format(config=path) for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "rng_seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_code_for_duplicate_sweep_entries(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"strategies": ["C-HUN", "C-HUN"], "mu_values": [0.5, 0.5],
                                    "iterations": 1, "out_dir": str(tmp_path / "out")}))
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "duplicate entry 'C-HUN' in strategies" in err
        assert "duplicate entry 0.5 in mu_values" in err
        assert not (tmp_path / "out").exists()

    def test_run_config_writes_every_override_flag(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"num_ul": 2, "num_dl": 2, "num_channels": 2, "seed": 3,
                                    "iterations": 5, "parallelism": 1,
                                    "out_dir": str(tmp_path / "from_file")}))
        out = tmp_path / "from_flag"
        assert main(["run", "--config", str(path), "--seed", "9", "--iters", "2",
                     "--out", str(out), "--parallelism", "2"]) == 0
        written = json.loads((out / "config.json").read_text())
        assert (written["seed"], written["iterations"], written["out_dir"],
                written["parallelism"]) == (9, 2, str(out), 2)
        assert not (tmp_path / "from_file").exists()

    def test_a_flag_replaces_its_key_before_validation(self, tmp_path):
        # only the flagged key is invalid, so the run goes ahead
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"iterations": 0, "seed": -1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--iters", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["seed"] == 2

    @pytest.mark.parametrize("entry", [["C-HUN"], {"a": 1}])
    def test_exit_code_for_a_nested_sweep_entry(self, tmp_path, capsys, entry):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"strategies": [entry], "iterations": 1}))
        assert main(["validate", "--config", str(path)]) == 1
        assert "config key 'strategies' must be of type str" in capsys.readouterr().err
