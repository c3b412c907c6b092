"""Monte Carlo experiment harness.

One experiment sweeps (strategy, mu, weight mode) combinations over N
independent network drops.  Every combination of one drop sees the same
GainTable, so cross-strategy comparisons are paired.  Substream seeds are
derived from the master seed and the drop index by a counter-based split,
which makes results independent of scheduling order and parallelism.
Each strategy is solved once per drop for all of the drop's (weight mode,
mu) objectives, each after the first from the generator state the first
began with, and the records keep the (weight mode, mu, strategy) order.
Outcomes of one solve that share SE arrays (a schedule that several
objectives chose, evaluated once and rescored, as every R-EPA schedule is)
give records derived from the first one, sharing its pair of SE tuples;
their records.jsonl lines are filled into the first one's encoded line,
cut once around mu, the objective and the weight mode.

Outputs per run directory:
  config.json    resolved configuration (deterministic)
  records.jsonl  one record per (drop, strategy, mu, weight mode)
  cdf_*.csv      empirical CDF per metric and combination
  summary.json   medians and pairwise median gaps
  timing.log     wall-clock sidecar; the only non-deterministic file

A parallel run forks one child per contiguous block of drops, at most
parallelism of them, and merges the blocks back in drop order.  Each child
pickles its block's result into its own pipe.  Where os.fork is missing
(Windows) a parallel run is a serial one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import time
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import metrics
from .model import (
    GainTable,
    ScenarioParams,
    WeightMode,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    watts_to_dbm,
)
from .radio import check_mu
from .scenario import build_gain_table, scenario_to_dict
from .solvers import STRATEGIES, solve

_ROLE_SCENARIO = 0
_ROLE_STRATEGY = 1

METRIC_NAMES = ("objective", "sum_se", "min_se", "jain")


class ConfigError(ValueError):
    """Raised for malformed or invalid experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    params: ScenarioParams = ScenarioParams()
    strategies: tuple[str, ...] = ("C-HUN",)
    mu_values: tuple[float, ...] = (0.5,)
    weight_modes: tuple[WeightMode, ...] = (WeightMode.SUM_RATE,)
    iterations: int = 1
    out_dir: str = "results/experiment"
    parallelism: int = 1
    dump_scenarios: bool = False
    name: str = "experiment"

    def __post_init__(self):
        """Reject a config that breaks any rule (require_valid_config)."""
        require_valid_config(self)


def require_valid_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg, or ConfigError listing every broken config-level rule; the
    cell's rules were checked when cfg.params was built."""
    bad = []
    if cfg.iterations < 1:
        bad.append(f"iterations must be >= 1, got {cfg.iterations}")
    for s in cfg.strategies:
        if s not in STRATEGIES:
            bad.append(f"unknown strategy {s!r} in strategies")
    for mu in cfg.mu_values:
        try:
            check_mu(mu)
        except ValueError as exc:
            bad.append(f"mu_values: {exc}")
    if cfg.parallelism < 1:
        bad.append(f"parallelism must be >= 1, got {cfg.parallelism}")
    for key, (field, kind, (_, dump)) in _KEYS.items():
        if isinstance(kind, list):   # a sweep: nonempty, each entry once
            values = [dump(x) for x in getattr(cfg, field)]
            if not values:
                bad.append(f"at least one entry required in {key}")
            for dup in dict.fromkeys(x for x in values if values.count(x) > 1):
                bad.append(f"duplicate entry {dup!r} in {key}")
    if bad:
        raise ConfigError(f"invalid experiment config: {'; '.join(bad)}")
    return cfg


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------

def drop_rng(master_seed: int, drop_index: int, role: int) -> np.random.Generator:
    """Independent substream for (drop, role), stable across parallelism."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(drop_index, role))
    return np.random.default_rng(ss)


def _gain_hash(gains: GainTable) -> str:
    digest = hashlib.sha256()
    for arr in (gains.g_ul, gains.g_dl, gains.g_cross):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """Metrics of one (drop, strategy, mu, weight mode) evaluation."""

    drop: int
    strategy: str
    mu: float
    weight_mode: str
    objective: float
    sum_se: float
    min_se: float
    jain: float
    se_ul: tuple[float, ...]
    se_dl: tuple[float, ...]
    seed: str
    gain_hash: str

    def rescored(self, mu: float, weight_mode: str, objective: float) -> "RunRecord":
        """This record of an evaluated schedule under another objective: the
        same SE tuples and metrics, without running __init__ again."""
        repeat = object.__new__(RunRecord)
        repeat.__dict__.update(vars(self), mu=mu, weight_mode=weight_mode, objective=objective)
        return repeat


def _run_drop(cfg: ExperimentConfig, drop_index: int):
    """Worker: evaluate all requested combinations on one drop."""
    started = time.perf_counter()
    master = cfg.params.rng_seed
    gains = build_gain_table(cfg.params, drop_rng(master, drop_index, _ROLE_SCENARIO))
    table_hash = _gain_hash(gains)
    seed = f"{master}:{drop_index}"
    strategy_rng = drop_rng(master, drop_index, _ROLE_STRATEGY)
    strategy_state = strategy_rng.bit_generator.state if len(cfg.strategies) > 1 else None
    objectives = [(mode, mu) for mode in cfg.weight_modes for mu in cfg.mu_values]
    columns = []   # per strategy: its records, one per objective
    for name in cfg.strategies:
        if columns:   # rewound, so each strategy makes the draws it would make alone
            strategy_rng.bit_generator.state = strategy_state
        outcomes = solve(name, gains, cfg.params, objectives, strategy_rng)
        # Rescored outcomes share both SE arrays; their records derive from the
        # first one and so share its pair of SE tuples.
        firsts, column = {}, []
        for (mode, mu), o in zip(objectives, outcomes):
            first = firsts.get(id(o.se_ul))
            if first is None:
                first = firsts[id(o.se_ul)] = RunRecord(
                    drop=drop_index, strategy=name, mu=mu, weight_mode=mode.value,
                    objective=o.objective, sum_se=o.sum_se, min_se=o.min_se, jain=o.jain,
                    se_ul=tuple(o.se_ul.tolist()), se_dl=tuple(o.se_dl.tolist()),
                    seed=seed, gain_hash=table_hash)
                column.append(first)
            else:
                column.append(first.rescored(mu, mode.value, o.objective))
        columns.append(column)
    records = [r for objective_records in zip(*columns) for r in objective_records]
    elapsed = time.perf_counter() - started
    scenario_doc = scenario_to_dict(gains) if cfg.dump_scenarios else None
    return records, scenario_doc, elapsed


class _WorkerTraceback(Exception):
    """Traceback text of an exception raised in a forked worker."""


def _run_block(cfg: ExperimentConfig, lo: int, hi: int):
    """Worker: drops lo..hi-1 in order, stopping at the first failure.

    Returns the finished drops' results, the exception that stopped the
    block with its traceback text (None if all finished) and the block's
    wall time.
    """
    started = time.perf_counter()
    results = []
    error = None
    try:
        for k in range(lo, hi):
            results.append(_run_drop(cfg, k))
    except Exception as exc:  # noqa: BLE001 - re-raised by the parent
        import traceback
        error = exc, traceback.format_exc()
    return results, error, time.perf_counter() - started


def _block_child(write_end: int, cfg: ExperimentConfig, lo: int, hi: int):
    """In a forked child: pickle _run_block's result into the pipe and exit,
    with status 0 once the whole result is written and 1 on any failure.
    Never returns, so the child never runs the parent's code after fork."""
    status = 1
    try:
        with open(write_end, "wb") as pipe:
            pickle.dump(_run_block(cfg, lo, hi), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_forked(cfg: ExperimentConfig, out: Path, records: list[RunRecord],
                timings: list[str]) -> list[str]:
    """Run the drops in min(iterations, parallelism) contiguous blocks, one
    forked child each, and merge the blocks with _merge_drop in drop order.
    Returns one timing line per block.

    On an early exit (a failed block, a child that died without a result,
    KeyboardInterrupt) every child whose result was not read is killed;
    closing its pipe would not stop it, since later children hold the read
    ends of earlier pipes.  Every child is reaped before this returns or
    raises.
    """
    n_blocks = min(cfg.iterations, cfg.parallelism)
    edges = [cfg.iterations * b // n_blocks for b in range(n_blocks + 1)]
    children = []   # (pid, read end of its pipe, lo, hi) of each child not yet reaped
    try:
        for lo, hi in zip(edges, edges[1:]):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _block_child(write_end, cfg, lo, hi)
            os.close(write_end)
            children.append((pid, open(read_end, "rb"), lo, hi))
        block_lines = []
        while children:
            pid, pipe, lo, hi = children[0]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status != 0:
                raise RuntimeError(f"the worker of drops {lo}-{hi - 1} ended without "
                                   f"a result (wait status {status})")
            results, error, elapsed = pickle.loads(data)
            for k, result in enumerate(results, lo):
                _merge_drop(out, k, result, records, timings)
            if error is not None:
                raise error[0] from _WorkerTraceback(error[1])
            block_lines.append(f"drops {lo}-{hi - 1}: pid {pid}, {elapsed:.4f} s")
        return block_lines
    finally:
        if children:   # an early exit
            import signal   # about 0.8 ms that a run without one never pays
            for pid, pipe, _, _ in children:
                os.kill(pid, signal.SIGKILL)
                pipe.close()
            for pid, *_ in children:
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all drops, write result files, return a small result index.

    On runtime failure a FAILED marker with the error text is left in the
    output directory, records.jsonl holds the records of every drop before
    the first failed one, and the exception propagates.  Result files an
    earlier run left in the directory are deleted first; other files are
    kept.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in (out / "FAILED", out / "summary.json", out / "timing.log",
                  *out.glob("cdf_*.csv"), *out.glob("scenarios/drop_*.json")):
        stale.unlink(missing_ok=True)
    (out / "config.json").write_text(json.dumps(config_to_dict(cfg), indent=1,
                                                sort_keys=True) + "\n")

    records: list[RunRecord] = []
    timings: list[str] = []
    try:
        if cfg.parallelism > 1 and hasattr(os, "fork"):
            timings.extend(_run_forked(cfg, out, records, timings))
        else:
            for k in range(cfg.iterations):
                _merge_drop(out, k, _run_drop(cfg, k), records, timings)
    except Exception as exc:
        _flush_records(out, records)
        (out / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n")
        raise

    _flush_records(out, records)
    cdf_files, summary = _write_cdfs_and_summary(out, cfg, records)
    (out / "timing.log").write_text(
        time.strftime("run finished %Y-%m-%dT%H:%M:%S\n") + "\n".join(timings) + "\n")
    return {"out_dir": str(out), "records": len(records),
            "cdf_files": cdf_files, "summary": summary}


def _merge_drop(out: Path, k: int, result, records: list[RunRecord],
                timings: list[str]) -> None:
    """Append drop k's results; drops are merged in order as they finish,
    so a later failure keeps every earlier drop."""
    drop_records, scenario_doc, elapsed = result
    records.extend(drop_records)
    timings.append(f"drop {k}: {elapsed:.4f} s")
    if scenario_doc is not None:
        scen_dir = out / "scenarios"
        scen_dir.mkdir(exist_ok=True)
        (scen_dir / f"drop_{k:04d}.json").write_text(
            json.dumps(scenario_doc, indent=1, sort_keys=True))


# json.dumps(obj, sort_keys=True) without building an encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True)
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode_float(x: float) -> str:
    """_ENCODER.encode(x) without its per-call setup: a float's repr, or the
    encoder's spelling of NaN and the infinities.  Anything but a float goes
    to the encoder."""
    if not isinstance(x, float):
        return _ENCODER.encode(x)
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _line_template(line: str) -> tuple[str, str]:
    """A solved record's records.jsonl line cut around the only fields a
    rescoring changes: the text before mu, and the text from the key after
    the objective up to weight_mode.  In sorted key order mu and objective
    are adjacent and weight_mode is last; no encoded number holds ', "', so
    that marks the key after objective."""
    head, rest = line.split(', "mu": ', 1)
    body = rest[rest.index(', "', rest.index('"objective": ')):rest.rindex(', "weight_mode": ')]
    return head, body


def _record_lines(records: list[RunRecord]):
    """Yield the records.jsonl lines: json.dumps(vars(r), sort_keys=True) of
    each.  _run_drop shares SE tuple objects only among the records of one
    evaluated schedule, so a drop's records of one strategy with the same
    tuples differ only in mu, the objective and the weight mode: the first is
    encoded and cut once (_line_template), and the later ones are filled in.
    Only the current drop's templates are held.  Each weight mode is spelled
    once; mu is spelled per line, since 0.0 and -0.0 are one dict key.
    (Encoding in _run_drop, between solves, measured slower.)"""
    solved, drop = {}, None
    tails = {}   # weight mode -> its encoded last field
    for r in records:
        if r.drop != drop:   # records come in drop order; hold one drop's templates
            solved, drop = {}, r.drop
        key = r.strategy, id(r.se_ul), id(r.se_dl)   # () is one object
        template = solved.get(key)
        if template is None:
            line = _ENCODER.encode(vars(r))
            solved[key] = _line_template(line)
            yield line
            continue
        tail = tails.get(r.weight_mode)
        if tail is None:
            tail = tails[r.weight_mode] = f', "weight_mode": {_ENCODER.encode(r.weight_mode)}}}'
        head, body = template
        yield (f'{head}, "mu": {_encode_float(r.mu)}, "objective": '
               f'{_encode_float(r.objective)}{body}{tail}')


def _flush_records(out: Path, records: list[RunRecord]) -> None:
    """Write records.jsonl a line at a time through one open file, so the
    file is never held in memory whole; no records give an empty file."""
    with open(out / "records.jsonl", "w") as f:
        for line in _record_lines(records):
            f.write(line)
            f.write("\n")


def _write_cdfs_and_summary(out: Path, cfg: ExperimentConfig,
                            records) -> tuple[list[str], dict]:
    """One CDF file per (metric, strategy, mu, weight mode), and the summary
    of their medians and pairwise median gaps."""
    files = []
    medians: dict[str, float] = {}
    gaps: dict[str, float | None] = {}
    combos: dict[tuple, list[RunRecord]] = {}   # (strategy, mu, weight mode) -> records
    for r in records:
        combos.setdefault((r.strategy, r.mu, r.weight_mode), []).append(r)
    row = attrgetter(*METRIC_NAMES)
    formatted = {}   # CSV rows shared by this run's CDF files (CdfSeries.to_csv_lines)
    for mode in cfg.weight_modes:
        for mu in cfg.mu_values:
            tag = f"mu={mu}|{mode.value}"
            for strategy in cfg.strategies:
                combo = combos.get((strategy, mu, mode.value), ())
                columns = dict(zip(METRIC_NAMES, zip(*map(row, combo))))   # {} if no records
                for metric in METRIC_NAMES:
                    series = metrics.empirical_cdf(
                        columns.get(metric, ()), metric=metric, strategy=strategy, mu=mu,
                        weight_mode=mode.value)
                    path = out / f"cdf_{metric}_{strategy}_mu{mu}_{mode.value}.csv"
                    series.write_csv(path, formatted)
                    files.append(path.name)
                    medians[f"{metric}|{strategy}|{tag}"] = metrics.percentile(series, 50)
            for metric in METRIC_NAMES:
                for a, b in itertools.permutations(cfg.strategies, 2):
                    pa = medians[f"{metric}|{a}|{tag}"]
                    pb = medians[f"{metric}|{b}|{tag}"]
                    gaps[f"{metric}|{a}-vs-{b}|{tag}"] = (pa - pb) / pb if pb != 0 else None
    summary = {"name": cfg.name, "iterations": cfg.iterations,
               "master_seed": cfg.params.rng_seed, "medians": medians, "gaps": gaps}
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return files, summary


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def _same(value):
    return value


_AS_IS = (_same, _same)

# key: (ScenarioParams or ExperimentConfig field, JSON kind, conversions from
# the key's reporting unit to the field's unit and back).  A kind [k] is a
# list of k, converted entry by entry.  Physical quantities use the units of
# the parameter table (m, dBm, dB).
_KEYS = {
    "name": ("name", str, _AS_IS),
    "cell_radius_m": ("cell_radius_m", float, _AS_IS),
    "num_ul": ("num_ul", int, _AS_IS),
    "num_dl": ("num_dl", int, _AS_IS),
    "num_channels": ("num_channels", int, _AS_IS),
    "noise_dbm": ("noise_power_w", float, (dbm_to_watts, watts_to_dbm)),
    "si_cancellation_db": ("si_cancellation", float, (db_to_linear, linear_to_db)),
    "p_max_ul_dbm": ("p_max_ul_w", float, (dbm_to_watts, watts_to_dbm)),
    "p_max_dl_dbm": ("p_max_dl_w", float, (dbm_to_watts, watts_to_dbm)),
    "min_bs_ue_distance_m": ("min_bs_ue_distance_m", float, _AS_IS),
    "strategies": ("strategies", [str], _AS_IS),
    "mu_values": ("mu_values", [float], _AS_IS),
    "weight_modes": ("weight_modes", [str], (WeightMode.from_key, attrgetter("value"))),
    "iterations": ("iterations", int, _AS_IS),
    "seed": ("rng_seed", int, _AS_IS),
    "parallelism": ("parallelism", int, _AS_IS),
    "out_dir": ("out_dir", str, _AS_IS),
    "dump_scenarios": ("dump_scenarios", bool, _AS_IS),
}
_PARAM_FIELDS = {f.name for f in fields(ScenarioParams)}


def _loaded(key: str, value, kind, load):
    """load(value), value checked to be of kind (int, float, bool, str, or [k]:
    a list of k, loaded entry by entry into a tuple).  An integer is a valid
    float; any other mismatch, bools included, is an error, not a value for
    int(), float(), bool() or str() to coerce."""
    if isinstance(kind, list):
        entries = _loaded(key, value, list, _same)
        return tuple(_loaded(key, entry, kind[0], load) for entry in entries)
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"config key {key!r} must be of type {kind.__name__}, "
                          f"got {value!r}")
    try:
        return load(float(value) if kind is float else value)
    except OverflowError as exc:
        raise ConfigError(f"config key {key!r}: {value!r} is out of range") from exc
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a validated config from a JSON document in reporting units.  An
    absent key leaves its field at the dataclass default.  ConfigError
    reports the first failing stage: unknown keys, each key's type and value
    in document order, the cell's rules, then the config's rules."""
    unknown = set(doc) - set(_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    params, top = {}, {}
    for key, value in doc.items():
        field, kind, (load, _) = _KEYS[key]
        (params if field in _PARAM_FIELDS else top)[field] = _loaded(key, value, kind, load)
    try:
        cell = ScenarioParams(**params)
    except ValueError as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc
    return ExperimentConfig(params=cell, **top)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Inverse of config_from_dict, back in reporting units."""
    doc = {}
    for key, (field, kind, (_, dump)) in _KEYS.items():
        value = getattr(cfg.params if field in _PARAM_FIELDS else cfg, field)
        doc[key] = list(map(dump, value)) if isinstance(kind, list) else dump(value)
    return doc


def read_document(path) -> dict:
    """The JSON object a config file holds, its keys not yet checked."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_document(path))


def config_with(doc: dict, **overrides) -> ExperimentConfig:
    """config_from_dict of doc with each override that is not None set as its
    key: the one path of presets, files and run flags to a config."""
    return config_from_dict({**doc, **{k: v for k, v in overrides.items() if v is not None}})


# ---------------------------------------------------------------------------
# Canned experiments
# ---------------------------------------------------------------------------

# fig2: small fully loaded system (4 UL, 4 DL, 4 channels), sum-rate
# weights, mu in {0.1, 0.5, 0.9}; the exact optimum vs the Hungarian
# heuristic (optimality-gap study).  Its cell and weights are the defaults.
#
# fig3: fully loaded system at 25 users per direction, mu = 0.9, both
# weight modes; Hungarian heuristic vs its interference-blind variant vs
# the random baseline.  One run is read both for fairness and for sum
# spectral efficiency.
CANNED = {name: {"name": name, "seed": 1, "iterations": 400, "out_dir": f"results/{name}",
                 **doc} for name, doc in {
    "fig2": {"strategies": ["P-OPT", "C-HUN"], "mu_values": [0.1, 0.5, 0.9]},
    "fig3": {"num_ul": 25, "num_dl": 25, "num_channels": 25,
             "strategies": ["C-HUN", "C-NINT", "R-EPA"], "mu_values": [0.9],
             "weight_modes": ["SR", "PL"]},
}.items()}
CANNED_NAMES = tuple(CANNED)


def canned_experiments(name: str, seed: int | None = None, iterations: int | None = None,
                       out_dir: str | None = None,
                       parallelism: int | None = None) -> ExperimentConfig:
    """A preset's validated config; an argument left None keeps the preset's value."""
    if name not in CANNED:
        raise ConfigError(f"unknown canned experiment {name!r}; known: {CANNED_NAMES}")
    return config_with(CANNED[name], seed=seed, iterations=iterations,
                       out_dir=out_dir, parallelism=parallelism)
