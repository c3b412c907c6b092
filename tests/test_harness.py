import dataclasses
import hashlib
import itertools
import json
import os
import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fdsched import harness
from fdsched.cli import main
from fdsched.harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    _encode_float,
    _line_template,
    _record_lines,
    _run_drop,
    canned_experiments,
    config_from_dict,
    config_to_dict,
    drop_rng,
    load_config,
    require_valid_config,
    run_experiment,
)
from fdsched.model import ScenarioParams, WeightMode, db_to_linear
from fdsched.scenario import build_gain_table, scenario_to_dict
from oracles import (load_scenario, median_gap, modules_after, read_cdf_csv,
                     reference_drop_records)


@pytest.fixture
def templates(monkeypatch):
    """The lines harness._line_template cuts, in order."""
    cut = []

    def counted(line, _cut=harness._line_template):
        cut.append(line)
        return _cut(line)

    monkeypatch.setattr(harness, "_line_template", counted)
    return cut


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
        gains = build_gain_table(ScenarioParams(**params, rng_seed=seed),
                                 drop_rng(seed, 0, 0))
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
            cdf_a, cdf_b = (read_cdf_csv(tmp_path / f"cdf_{metric}_{s}_mu{mu}_SR.csv")
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

        def explode(gains, params, objectives, rng):
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
        from fdsched import harness

        real_drop_rng = harness.drop_rng

        def failing_drop_rng(master_seed, drop_index, role):
            if drop_index == 3:
                raise RuntimeError("drop 3 failed")
            return real_drop_rng(master_seed, drop_index, role)

        # workers fork after the patch, so the pool branch sees it too
        monkeypatch.setattr(harness, "drop_rng", failing_drop_rng)
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
        from fdsched import harness

        cfg = tiny_config(tmp_path / "full", iterations=6)
        run_experiment(cfg)
        real_drop_rng = harness.drop_rng

        def failing_drop_rng(master_seed, drop_index, role):
            if drop_index == failing:
                raise RuntimeError(f"drop {failing} failed")
            return real_drop_rng(master_seed, drop_index, role)

        monkeypatch.setattr(harness, "drop_rng", failing_drop_rng)
        with pytest.raises(RuntimeError, match=f"drop {failing} failed"):
            run_experiment(dataclasses.replace(cfg, out_dir=str(tmp_path / "fail")))
        per_drop = len(cfg.strategies) * len(cfg.mu_values) * len(cfg.weight_modes)
        full = (tmp_path / "full" / "records.jsonl").read_text().splitlines(keepends=True)
        kept = (tmp_path / "fail" / "records.jsonl").read_text()
        assert kept == "".join(full[:failing * per_drop])

    def test_rerun_clears_a_stale_failure_marker_and_cdfs(self, tmp_path, monkeypatch):
        from fdsched import solvers

        def explode(gains, params, objectives, rng):
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
            got = _run_drop(cfg, k)[0]
            want = reference_drop_records(cfg, k)
            assert [vars(r) for r in got] == [vars(r) for r in want]
        assert len({r.objective for r in got if r.strategy == "R-EPA"}) == 6

    def test_objective_free_records_share_their_se_tuples(self, tmp_path):
        cfg = dataclasses.replace(
            tiny_config(tmp_path, num_ul=3, num_dl=5, num_channels=6),
            strategies=("C-HUN", "R-EPA"), mu_values=(0.1, 0.5, 0.9),
            weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION))
        for k in range(3):
            records = _run_drop(cfg, k)[0]
            repa = [r for r in records if r.strategy == "R-EPA"]
            assert len(repa) == 6
            assert all(r.se_ul is repa[0].se_ul and r.se_dl is repa[0].se_dl for r in repa)


class TestRepeatedSchedules:
    """On fig2 most objectives after a solve's first choose a schedule that
    an earlier one chose; it is evaluated once, its records share one pair
    of SE tuples, and their lines derive from the first one's line."""

    def test_records_of_a_repeated_schedule_share_their_se_tuples(self, tmp_path,
                                                                   monkeypatch):
        solved = []

        def recorded(*args, _solve=harness.solve):
            solved.append(_solve(*args))
            return solved[-1]

        monkeypatch.setattr(harness, "solve", recorded)
        cfg = canned_experiments("fig2", seed=5, iterations=6, out_dir=str(tmp_path))
        shared = 0
        for k in range(cfg.iterations):
            solved.clear()
            records = _run_drop(cfg, k)[0]
            for name, outcomes in zip(cfg.strategies, solved):
                own = [r for r in records if r.strategy == name]
                for n, (r, o) in enumerate(zip(own, outcomes)):
                    for earlier_r, earlier_o in zip(own[:n], outcomes[:n]):
                        same = earlier_o.se_ul is o.se_ul
                        assert (earlier_r.se_ul is r.se_ul) == same
                        assert (earlier_r.se_dl is r.se_dl) == same
                        shared += same
        assert shared > 0

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_written_lines_equal_json_dumps(self, tmp_path, parallelism, templates):
        cfg = canned_experiments("fig2", seed=5, iterations=6, out_dir=str(tmp_path),
                                 parallelism=parallelism)
        run_experiment(cfg)
        want = [json.dumps(vars(r), sort_keys=True)
                for k in range(cfg.iterations) for r in reference_drop_records(cfg, k)]
        assert (tmp_path / "records.jsonl").read_text() == "\n".join(want) + "\n"
        # one template per evaluated schedule; every other line is derived
        assert 0 < len(templates) < len(want)


class TestEncodedLines:
    """A rescored record's line is derived from its solve's line; every
    written line must equal json.dumps of its record with sorted keys."""

    @pytest.mark.parametrize("strategies", [("R-EPA", "C-HUN"), ("C-HUN", "R-EPA")])
    @pytest.mark.parametrize("mu_values", [(0.5,), (0.1, 0.5, 0.9)])
    @pytest.mark.parametrize("weight_modes", [
        (WeightMode.SUM_RATE,), (WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION)])
    def test_lines_equal_json_dumps_of_the_records(self, tmp_path, strategies, mu_values,
                                                   weight_modes):
        cfg = dataclasses.replace(tiny_config(tmp_path, num_ul=3, num_dl=4, num_channels=5),
                                  strategies=strategies, mu_values=mu_values,
                                  weight_modes=weight_modes)
        records = [r for k in range(3) for r in _run_drop(cfg, k)[0]]
        assert len(records) == 3 * len(strategies) * len(mu_values) * len(weight_modes)
        assert list(_record_lines(records)) == [json.dumps(vars(r), sort_keys=True)
                                                for r in records]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_written_file_equals_the_fresh_solve_records(self, tmp_path, parallelism):
        cfg = dataclasses.replace(
            tiny_config(tmp_path, iterations=5, parallelism=parallelism),
            strategies=("R-EPA", "C-HUN"), mu_values=(0.1, 0.5, 0.9),
            weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION))
        run_experiment(cfg)
        want = [json.dumps(vars(r), sort_keys=True)
                for k in range(cfg.iterations) for r in reference_drop_records(cfg, k)]
        assert (tmp_path / "records.jsonl").read_text() == "\n".join(want) + "\n"

    def test_rescored_line_with_tricky_reprs(self, templates):
        solved = RunRecord(drop=3, strategy="R-EPA", mu=0.5, weight_mode="SR",
                           objective=2.5, sum_se=4.0, min_se=0.25, jain=0.75,
                           se_ul=(0.25, 1.5), se_dl=(2.25, -0.0), seed="7:3",
                           gain_hash="0123abcd")
        tricky = [-0.0, 5e-324, 1e22, 0.1 + 0.2, 1.0]
        # every repeat shares the solved record's SE tuples, so all derive from
        # its one template, with the two modes' spellings alternating
        records = [solved] + [
            dataclasses.replace(solved, mu=mu, objective=objective, weight_mode=mode)
            for mu in tricky for objective in tricky + [float("nan"), float("-inf")]
            for mode in ("PL", "SR")]
        assert list(_record_lines(records)) == [json.dumps(vars(r), sort_keys=True)
                                                for r in records]
        assert templates == [json.dumps(vars(solved), sort_keys=True)]

    def test_line_template_cuts_around_the_rescored_fields(self):
        solved = RunRecord(drop=3, strategy="R-EPA", mu=-0.0, weight_mode="SR",
                           objective=float("nan"), sum_se=4.0, min_se=5e-324, jain=0.75,
                           se_ul=(1e22,), se_dl=(), seed="7:3", gain_hash="0123abcd")
        line = json.dumps(vars(solved), sort_keys=True)
        head, body = _line_template(line)
        assert head == '{"drop": 3, "gain_hash": "0123abcd", "jain": 0.75, "min_se": 5e-324'
        assert body == ', "se_dl": [], "se_ul": [1e+22], "seed": "7:3", "strategy": "R-EPA", ' \
                       '"sum_se": 4.0'
        assert line == f'{head}, "mu": -0.0, "objective": NaN{body}, "weight_mode": "SR"}}'

    def test_encode_float_matches_json_dumps(self):
        values = [0.0, -0.0, 1e-320, 1e22, sys.float_info.max, float("nan"),
                  float("inf"), float("-inf"), np.float64(0.1), 1]
        for x in values:
            assert _encode_float(x) == json.dumps(x)


class TestFlushRecords:
    """records.jsonl is written a line at a time, never held whole."""

    def test_flush_allocates_a_small_share_of_the_file(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            params=ScenarioParams(num_ul=25, num_dl=25, num_channels=25, rng_seed=3),
            strategies=("R-EPA",), mu_values=(0.1, 0.5, 0.9),
            weight_modes=(WeightMode.SUM_RATE, WeightMode.PATH_LOSS_COMPENSATION),
            iterations=100, out_dir=str(tmp_path))
        peaks = []

        def traced(out, records, _flush=harness._flush_records):
            tracemalloc.start()
            try:
                _flush(out, records)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(harness, "_flush_records", traced)
        run_experiment(cfg)
        size = (tmp_path / "records.jsonl").stat().st_size
        assert len(peaks) == 1 and size > 500_000
        assert peaks[0] < size / 4


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

    @pytest.mark.parametrize("failing", [1, 3, 11])
    def test_failure_inside_a_block_keeps_earlier_drops(self, tmp_path, monkeypatch,
                                                        failing):
        from fdsched import harness

        real_drop_rng = harness.drop_rng

        def failing_drop_rng(master_seed, drop_index, role):
            if drop_index == failing:
                raise RuntimeError(f"drop {failing} failed")
            return real_drop_rng(master_seed, drop_index, role)

        monkeypatch.setattr(harness, "drop_rng", failing_drop_rng)
        cfg = tiny_config(tmp_path / "fail", iterations=20, parallelism=2)
        with pytest.raises(RuntimeError, match=f"drop {failing} failed") as excinfo:
            run_experiment(cfg)
        assert "in _run_drop" in str(excinfo.value.__cause__)  # worker traceback
        out = tmp_path / "fail"
        assert (out / "FAILED").read_text() == f"RuntimeError: drop {failing} failed\n"
        drops = [json.loads(line)["drop"]
                 for line in (out / "records.jsonl").read_text().splitlines()]
        per_drop = len(cfg.strategies) * len(cfg.mu_values) * len(cfg.weight_modes)
        assert drops == [k for k in range(failing) for _ in range(per_drop)]

    def test_timing_log_has_one_line_per_block(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "t", iterations=9, parallelism=2))
        lines = (tmp_path / "t" / "timing.log").read_text().splitlines()[1:]
        assert [line.split(":")[0] for line in lines[:9]] == [f"drop {k}" for k in range(9)]
        blocks = [line.split(":")[0] for line in lines[9:]]
        # 9 drops in 2 blocks, one per worker: edges at 9 * b // 2
        assert blocks == ["drops 0-3", "drops 4-8"]
        assert all(" pid " in line and line.endswith(" s") for line in lines[9:])

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
        real_run_block, real_drop_rng = harness._run_block, harness.drop_rng

        def run_block(cfg, lo, hi):
            if lo > 0:
                time.sleep(60)
            return real_run_block(cfg, lo, hi)

        def failing_drop_rng(master_seed, drop_index, role):
            if drop_index == 1:
                raise RuntimeError("drop 1 failed")
            return real_drop_rng(master_seed, drop_index, role)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "_run_block", run_block)
        if stop is RuntimeError:
            monkeypatch.setattr(harness, "drop_rng", failing_drop_rng)
        else:
            monkeypatch.setattr(harness, "_merge_drop", interrupted)
        started = time.monotonic()
        with pytest.raises(stop) as excinfo:
            run_experiment(tiny_config(tmp_path / "stop", iterations=6, parallelism=3))
        if stop is RuntimeError:
            assert "in _run_drop" in str(excinfo.value.__cause__)   # a failed block
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

    def test_without_fork_a_parallel_run_is_serial(self, tmp_path, monkeypatch):
        run_experiment(tiny_config(tmp_path / "p1", iterations=5))
        monkeypatch.delattr(os, "fork")
        run_experiment(tiny_config(tmp_path / "p2", iterations=5, parallelism=2))
        assert (read_deterministic_outputs(tmp_path / "p2")
                == read_deterministic_outputs(tmp_path / "p1"))
        lines = (tmp_path / "p2" / "timing.log").read_text().splitlines()[1:]
        assert [line.split(":")[0] for line in lines] == [f"drop {k}" for k in range(5)]


# A process pool's packages, a worker's traceback capture and logging: a
# run's parent process needs none of them, serial or parallel, so it must
# not pay for importing them (README, "Runtime dependency").
POOL_PACKAGES = ("concurrent", "multiprocessing", "logging", "traceback")


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
    def test_substreams_are_stable(self):
        a = drop_rng(42, 3, 0).random(4)
        b = drop_rng(42, 3, 0).random(4)
        assert np.array_equal(a, b)

    def test_substreams_differ_across_drops_and_roles(self):
        base = drop_rng(42, 0, 0).random(4)
        assert not np.array_equal(base, drop_rng(42, 1, 0).random(4))
        assert not np.array_equal(base, drop_rng(42, 0, 1).random(4))
        assert not np.array_equal(base, drop_rng(43, 0, 0).random(4))


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
    ], ids=["weight_modes", "strategies", "mu_values"])
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
