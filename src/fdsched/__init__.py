"""fdsched: pairing and power allocation for full-duplex cellular cells.

A base station capable of in-band full-duplex can serve one uplink and one
downlink user on the same frequency channel.  This package simulates such
a single cell, schedules user pairs and binary transmit powers under a
tunable efficiency/fairness objective, and benchmarks the Hungarian-based
heuristic against the exact optimum and random baselines over seeded
Monte Carlo drops.
"""

from .assignment import assign_with_solo, hungarian_max
from .harness import (
    ExperimentConfig,
    canned_experiments,
    config_from_dict,
    load_config,
    run_experiment,
)
from .metrics import CdfSeries, empirical_cdf, jain_index, percentile
from .model import (
    GainTable,
    Outcomes,
    ScenarioParams,
    WeightMode,
    WeightVector,
    dbm_to_watts,
    watts_to_dbm,
)
from .radio import make_weights, outcome_metrics, sinr
from .scenario import build_gain_table, link_gain
from .solvers import (
    STRATEGIES,
    solve,
    solve_c_hun,
    solve_c_nint,
    solve_p_opt,
    solve_r_epa,
)

__version__ = "0.1.0"
