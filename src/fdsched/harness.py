"""Monte Carlo experiment harness.

One experiment sweeps (strategy, mu, weight mode) combinations over N
independent network drops.  Every combination of one drop sees the same
GainTable, so cross-strategy comparisons are paired.  Each drop's generators
are those of default_rng(SeedSequence(seed, spawn_key=(drop, role))), made a
chunk at a time (drop_rngs), so results depend on neither chunks nor workers.
The drops run in near-equal chunks of at most about _CHUNK_BYTES of gain
tables and of what a strategy holds per drop (but enough for a stack to reach
the lockstep gate where the stacks are solved in lockstep).  A chunk's gains
are one GainTable with a leading drop axis, made in one build_gain_table
call, and each strategy is solved once per chunk, for all of its drops'
(weight mode, mu) objectives, so its assignments go to the solver as one
stack.  Once every strategy is solved (one Outcomes each), the chunk
encodes its records per drop, in drop order and (weight mode, mu,
strategy) order, and returns their records.jsonl text with a table of
their CDF metrics, so a forked worker encodes its own drops.
records.jsonl grows a chunk at a time as the chunks are merged, so a
failure keeps every merged drop; a chunk that fails is solved again one
drop at a time, which keeps every drop before the failing one.
A schedule that several objectives of a drop chose (Outcomes.schedule
names the same row, as for every R-EPA schedule) is evaluated once and
rescored: its records.jsonl line is encoded once with a hole in each field
a rescoring changes (_RESCORED), and each of its lines fills in the holes.

Outputs per run directory:
  config.json    resolved configuration (deterministic)
  records.jsonl  one record per (drop, strategy, mu, weight mode)
  cdf_*.csv      empirical CDF per metric and combination, cut from the
                 run's metric table sorted once (_write_cdfs_and_summary)
  summary.json   medians and pairwise median gaps
  timing.log     wall-clock sidecar, one line per chunk and, in a parallel
                 run, per block; the only non-deterministic file

A parallel run forks one child per contiguous block of drops, at most
parallelism of them.  Each child runs its block in chunks and pickles their
results (each chunk's encoded text and metric table) into its own pipe; the
parent hands them in drop order to the merge loop a serial run uses.
Where os.fork is missing (Windows) a parallel run is a serial one.
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

from . import assignment, metrics
from .model import (
    GainTable,
    Outcomes,
    ScenarioParams,
    WeightMode,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    watts_to_dbm,
)
from .radio import check_mu
from .scenario import build_gain_table, scenario_to_dict
from .solvers import STRATEGIES, solve, stacked_problems

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
    if cfg.iterations > 1 << 32:   # a drop index is one 32-bit seed word (drop_rngs)
        bad.append(f"iterations must be <= 2**32, got {cfg.iterations}")
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

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _hash_constants(init: int, mult: int, calls: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) constants of a SeedSequence hash's first hashmix calls."""
    consts = list(itertools.accumulate([mult] * calls, lambda c, m: c * m & _MASK32,
                                       initial=init))
    return list(zip(consts, consts[1:]))


def _hashmix(value, xor, mult):
    """SeedSequence's hashmix of an int or, elementwise, a uint32 array."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


@dataclass
class _PCG64Words(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the 4 uint64 state words drop_rngs computed."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def drop_rngs(master_seed: int, lo: int, hi: int, role: int) -> list[np.random.Generator]:
    """The generators of (drop k, role) for k in lo..hi-1, each in the state of
    default_rng(SeedSequence(master_seed, spawn_key=(k, role))) bit for bit,
    so a drop's streams depend on neither its chunk nor its worker.  The seed's
    words are hashed once, in ints; the spawn keys (k < 2**32: one word each,
    require_valid_config) are mixed into the pool as one (4, drops) array."""
    # the seed's 32-bit words, low first, padded to the pool as a spawn key asks
    words = [master_seed >> 32 * i & _MASK32
             for i in range(max(-(-master_seed.bit_length() // 32), 4))]
    calls = iter(_hash_constants(_INIT_A, _MULT_A, 4 * len(words) + 8))
    pool = [_hashmix(w, *next(calls)) for w in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(calls)))
    for word in words[4:]:
        pool = [_mix(p, _hashmix(word, *next(calls))) for p in pool]
    xor, mult = np.array([next(calls) for _ in pool], np.uint32).T[..., None]
    pool = _mix(np.array(pool, np.uint32)[:, None],
                _hashmix(np.arange(lo, hi, dtype=np.uint32), xor, mult))
    pool = _mix(pool, np.array([[_hashmix(role, *next(calls))] for _ in pool], np.uint32))
    xor, mult = np.array(_hash_constants(_INIT_B, _MULT_B, 8), np.uint32).T[..., None]
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], xor, mult).T   # 8 words a drop
    state = np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_PCG64Words(row))) for row in state]


def _gain_hashes(gains: GainTable) -> list[str]:
    """Each drop's gain_hash: the first 16 hex digits of the sha256 of its g_ul,
    g_dl and g_cross bytes, read in place (each drop's rows are contiguous)."""
    hashes = []
    for rows in zip(gains.g_ul, gains.g_dl, gains.g_cross):
        digest = hashlib.sha256()
        for row in rows:
            digest.update(np.ascontiguousarray(row))
        hashes.append(digest.hexdigest()[:16])
    return hashes


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

# A records.jsonl line holds one (drop, strategy, mu, weight mode) evaluation:
# drop, strategy, mu, weight_mode, objective, sum_se, min_se, jain, se_ul,
# se_dl (lists), seed and gain_hash.  The fields in which the lines of one
# evaluated schedule differ, sorted:
_RESCORED = ("mu", "objective", "weight_mode")


# A chunk holds about this many bytes at once: its gain tables (I * J + 3 *
# (I + J) + 2 float64s with the positions) and what its costliest strategy
# holds per drop: the stacked benefits (I x (J + I - P) float64s a problem)
# and, for P-OPT, the corner tables and pair minima (2 * I * J + 2 * I + J
# float64s) it keeps until the chunk is solved; a threshold round stacks at
# most one problem per drop and weight vector, as the max-sum stack does.
# A lockstep problem costs 0.25 ms at 25 x 25 in a stack of 60, 0.18 ms in
# one of 120 and 0.15 ms in one of 240 (ROADMAP item 9); 1 MiB is 64 fig3
# drops, stacks of 128, and raised a 60-drop fig3 run's peak RSS by 1.2 MB
# (3%) over stacks of 60.  The gain-table builder's temporaries are not
# counted: they are gone before any strategy runs.
_CHUNK_BYTES = 1 << 20


def _objectives(cfg: ExperimentConfig) -> list:
    """The (weight mode, mu) objectives in record order, which the metric
    table's objective axis and the CDF loop follow."""
    return [(mode, mu) for mode in cfg.weight_modes for mu in cfg.mu_values]


def _chunk_drops(cfg: ExperimentConfig) -> tuple[int, int]:
    """(most, least): as many drops as _CHUNK_BYTES holds (at least one),
    and where the stacks go to the lockstep solver (too narrow to prune),
    enough drops for one stack to reach its gate (1 elsewhere)."""
    objectives = _objectives(cfg)
    ul, dl = cfg.params.num_ul, cfg.params.num_dl
    width = dl + ul - assignment.min_pairs(ul, dl, cfg.params.num_channels)
    stacks = [stacked_problems(name, objectives) for name in cfg.strategies]
    held = max(n * ul * width + (2 * ul * dl + 2 * ul + dl if name == "P-OPT" else 0)
               for name, n in zip(cfg.strategies, stacks))
    most = max(_CHUNK_BYTES // (8 * (held + ul * dl + 3 * (ul + dl) + 2)), 1)
    lockstep = max(stacks) and ul * (width - ul) < assignment._PRUNE_MIN_SPARE_ENTRIES
    least = -(-assignment._LOCKSTEP_MIN_PROBLEMS // max(stacks)) if lockstep else 1
    return most, least


def _run_chunk(cfg: ExperimentConfig, lo: int, hi: int):
    """Evaluate all requested combinations on drops lo..hi-1: each strategy
    is solved once over all of them, then the records are encoded a drop at
    a time.  Each (drop, strategy, schedule row) line is cut once
    (_hole_template) and every objective that chose the row fills in its
    _RESCORED holes; each objective's mu and weight mode are spelled once,
    by objective index, since equal floats may spell differently (-0.0 and
    0.0).  Returns (lo, hi, each drop's records.jsonl text, the (drops,
    objectives, strategies, METRIC_NAMES) table of the records' metrics,
    the drops' scenario documents or None, the chunk's wall time)."""
    started = time.perf_counter()
    master = cfg.params.rng_seed
    gains = build_gain_table(cfg.params, drop_rngs(master, lo, hi, _ROLE_SCENARIO))
    rngs = (drop_rngs(master, lo, hi, _ROLE_STRATEGY)
            if "R-EPA" in cfg.strategies else None)   # the one strategy that reads them
    objectives = _objectives(cfg)
    solved = [solve(name, gains, rngs, cfg.params, objectives) for name in cfg.strategies]
    table = np.array([[o.objective, o.sum_se[o.schedule], o.min_se[o.schedule],
                       o.jain[o.schedule]] for o in solved]).transpose(2, 3, 0, 1)
    spelled = [(_encode_float(mu), _ENCODER.encode(mode.value)) for mode, mu in objectives]
    chosen = [(name, o, o.schedule.tolist(), o.objective.tolist())
              for name, o in zip(cfg.strategies, solved)]
    texts = []
    for d, gain_hash in enumerate(_gain_hashes(gains)):
        drop = {"drop": lo + d, "seed": f"{master}:{lo + d}", "gain_hash": gain_hash}
        templates, lines = {}, []   # (strategy, schedule row) -> its line template
        for n, (mu, mode) in enumerate(spelled):
            for name, o, rows, values in chosen:
                s = rows[d][n]
                template = templates.get((name, s))
                if template is None:
                    template = templates[name, s] = _hole_template(
                        {**drop, "strategy": name, **_schedule_fields(o, s)})
                template[1::2] = mu, _encode_float(values[d][n]), mode
                lines.append("".join(template))
        texts.append("\n".join([*lines, ""]))
    scenarios = ([scenario_to_dict(gains.drop(d)) for d in range(hi - lo)]
                 if cfg.dump_scenarios else None)
    return lo, hi, texts, table, scenarios, time.perf_counter() - started


def _schedule_fields(outcomes: Outcomes, s: int) -> dict:
    """The record fields of distinct schedule s of outcomes: its SEs and metrics."""
    return {"sum_se": float(outcomes.sum_se[s]), "min_se": float(outcomes.min_se[s]),
            "jain": float(outcomes.jain[s]), "se_ul": outcomes.se_ul[s].tolist(),
            "se_dl": outcomes.se_dl[s].tolist()}


def _solved_chunks(cfg: ExperimentConfig, lo: int, hi: int):
    """Yield _run_chunk's result for drops lo..hi-1 in drop order, in
    near-equal chunks: the fewest of at most `most` drops (_chunk_drops),
    unless that leaves a chunk below `least`, whose stacks would miss the
    lockstep gate; then as many of at least `least` drops as fit.  So where
    the gate sets the size, a chunk holds up to 2 * least - 1 drops.  A
    chunk that fails is solved again one drop per chunk, so every drop
    before the failing one is yielded and that drop's exception
    propagates."""
    most, least = _chunk_drops(cfg)
    count = min(-(-(hi - lo) // most), max((hi - lo) // least, 1))
    for c in range(count):
        start, stop = lo + (hi - lo) * c // count, lo + (hi - lo) * (c + 1) // count
        try:
            chunks = [_run_chunk(cfg, start, stop)]
        except Exception:
            if stop - start == 1:
                raise
            chunks = (_run_chunk(cfg, k, k + 1) for k in range(start, stop))
        yield from chunks


class _WorkerTraceback(Exception):
    """Traceback text of an exception raised in a forked worker."""


def _run_block(cfg: ExperimentConfig, lo: int, hi: int):
    """Worker: drops lo..hi-1 in chunks (_solved_chunks), stopping at the
    first failure.

    Returns the finished chunks' results, the exception that stopped the
    block with its traceback text (None if all finished) and the block's
    wall time.
    """
    started = time.perf_counter()
    results = []
    error = None
    try:
        results.extend(_solved_chunks(cfg, lo, hi))
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


def _forked_chunks(cfg: ExperimentConfig, block_lines: list[str]):
    """Run the drops in min(iterations, parallelism) contiguous blocks, one
    forked child each, and yield the blocks' chunks (_run_chunk's results)
    in drop order, appending one timing line per finished block to
    block_lines.

    On an early exit (a failed block, a child that died without a result,
    KeyboardInterrupt, or the generator closed before its end) every child
    whose result was not read is killed; closing its pipe would not stop
    it, since later children hold the read ends of earlier pipes.  Every
    child is reaped before the generator finishes, raises or is closed.
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
        while children:
            pid, pipe, lo, hi = children[0]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status != 0:
                raise RuntimeError(f"the worker of drops {lo}-{hi - 1} ended without "
                                   f"a result (wait status {status})")
            chunks, error, elapsed = pickle.loads(data)
            yield from chunks
            if error is not None:
                raise error[0] from _WorkerTraceback(error[1])
            block_lines.append(f"drops {lo}-{hi - 1}: pid {pid}, {elapsed:.4f} s")
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
    One loop merges the chunks of _solved_chunks or _forked_chunks in drop
    order: records.jsonl is opened once and each chunk's text is written as
    the chunk is merged; the CDFs and summary come from the chunks' tables.
    The chunks' generator is closed on any exit, which reaps every worker.
    On runtime failure a FAILED marker with the error text is left in the
    output directory, records.jsonl holds the records of every drop before
    the first failed one, and the exception propagates.  Result files an
    earlier run left in the directory are deleted first; others are kept.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in (out / "FAILED", out / "summary.json", out / "timing.log",
                  *out.glob("cdf_*.csv"), *out.glob("scenarios/drop_*.json")):
        stale.unlink(missing_ok=True)
    (out / "config.json").write_text(json.dumps(config_to_dict(cfg), indent=1,
                                                sort_keys=True) + "\n")

    tables: list[np.ndarray] = []   # each chunk's metric table (_run_chunk)
    timings: list[str] = []
    block_lines: list[str] = []
    chunks = (_forked_chunks(cfg, block_lines) if cfg.parallelism > 1 and hasattr(os, "fork")
              else _solved_chunks(cfg, 0, cfg.iterations))
    try:
        with open(out / "records.jsonl", "w") as records:
            for chunk in chunks:
                _merge_chunk(out, records, chunk, tables, timings)
    except Exception as exc:
        (out / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n")
        raise
    finally:
        chunks.close()

    timings += block_lines
    table = np.concatenate(tables)
    cdf_files, summary = _write_cdfs_and_summary(out, cfg, table)
    (out / "timing.log").write_text(
        time.strftime("run finished %Y-%m-%dT%H:%M:%S\n") + "\n".join(timings) + "\n")
    return {"out_dir": str(out), "records": table[..., 0].size,
            "cdf_files": cdf_files, "summary": summary}


def _merge_chunk(out: Path, records, chunk, tables: list[np.ndarray],
                 timings: list[str]) -> None:
    """Append a chunk's results (_run_chunk): its text to the open
    records.jsonl file records, its metric table to tables.  Chunks are
    merged in drop order as they finish, so a later failure keeps every
    earlier drop."""
    lo, hi, texts, table, scenarios, elapsed = chunk
    timings.append(f"chunk {lo}-{hi - 1}: {elapsed:.4f} s")
    records.writelines(texts)
    tables.append(table)
    for k, scenario_doc in enumerate(scenarios or (), lo):
        (out / "scenarios").mkdir(exist_ok=True)
        (out / f"scenarios/drop_{k:04d}.json").write_text(
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


def _hole_template(fields: dict) -> list:
    """The records.jsonl line of the record fields cut at a hole in each
    _RESCORED field (encoded "\x00", which no other field's text holds),
    with a slot for each field's value between the pieces; sorted keys keep
    the fields in _RESCORED order."""
    pieces = _ENCODER.encode({**fields, **dict.fromkeys(_RESCORED, "\x00")}).split(
        _ENCODER.encode("\x00"))
    template = [None] * (2 * len(pieces) - 1)
    template[::2] = pieces
    return template


def _write_cdfs_and_summary(out: Path, cfg: ExperimentConfig,
                            table: np.ndarray) -> tuple[list[str], dict]:
    """One CDF file per (metric, strategy, mu, weight mode), and the summary
    of their medians and pairwise median gaps, from the run's (drops,
    objectives, strategies, METRIC_NAMES) table (_run_chunk), sorted once
    column by column.  A CDF file is a comment line (metric, strategy, mu,
    weight mode), a column header, then value,probability rows, each float
    spelled with repr so files are byte-reproducible.  The probability
    column is spelled once, and each distinct sorted column (by its bytes,
    so -0.0 and 0.0 stay apart) once."""
    cdf = metrics.empirical_cdf(table)
    probabilities = list(map(repr, cdf.probabilities.tolist()))
    rows = {}   # a sorted column's bytes -> its rows' text
    files = []
    medians: dict[str, float] = {}
    gaps: dict[str, float | None] = {}
    for (mode, mu), columns, middles in zip(_objectives(cfg), cdf.values.transpose(1, 2, 3, 0),
                                            metrics.percentile(cdf, 50).tolist()):
        tag = f"mu={mu}|{mode.value}"
        for strategy, combo, combo_middles in zip(cfg.strategies, columns, middles):
            for metric, column, median in zip(METRIC_NAMES, combo, combo_middles):
                key = column.tobytes()
                if key not in rows:
                    rows[key] = "".join(f"\n{v!r},{p}"
                                        for v, p in zip(column.tolist(), probabilities))
                path = out / f"cdf_{metric}_{strategy}_mu{mu}_{mode.value}.csv"
                path.write_text(f"# {metric},{strategy},{float(mu)!r},{mode.value}\n"
                                f"value,probability{rows[key]}\n")
                files.append(path.name)
                medians[f"{metric}|{strategy}|{tag}"] = median
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
