"""The benchmark's four fixed workloads and how each becomes a config.

Each workload has a different dominant layer, so an optimisation of one
layer has a workload that exercises it and one that bypasses it.  The
"-pN" suffix is the harness ``parallelism`` setting.  Drop counts are
chosen so one end-to-end run of a workload takes about two seconds on a
2-core x86 box, which leaves room for several fresh-interpreter repeats
inside one benchmark run.

The shape fields (users, strategies, mu values, weight modes) are the
benchmark's own expectation of what the program must emit.  The output
checks compare against them, not against the config the program writes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    drops: int
    parallelism: int
    num_ul: int
    num_dl: int
    num_channels: int
    strategies: tuple[str, ...]
    mu_values: tuple[float, ...]
    weight_modes: tuple[str, ...]
    canned: str | None = None

    def records_expected(self) -> int:
        return (self.drops * len(self.strategies) * len(self.mu_values)
                * len(self.weight_modes))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig2-p2",
        why="canned fig2 at parallelism 2: P-OPT enumeration dominates; one "
            "pool task per short drop shows dispatch and pickling cost",
        drops=240, parallelism=2, num_ul=4, num_dl=4, num_channels=4,
        strategies=("P-OPT", "C-HUN"), mu_values=(0.1, 0.5, 0.9),
        weight_modes=("SR",), canned="fig2"),
    Workload(
        name="fig3-p1",
        why="canned fig3, serial: the 25+25 headline study, where the "
            "Hungarian assignment on square full-load matrices dominates",
        drops=60, parallelism=1, num_ul=25, num_dl=25, num_channels=25,
        strategies=("C-HUN", "C-NINT", "R-EPA"), mu_values=(0.9,),
        weight_modes=("SR", "PL"), canned="fig3"),
    Workload(
        name="asym-spare-p1",
        why="40 UL, 80 DL on 96 channels, serial: a 96x96 assignment full of "
            "tied solo rows and columns that no canned run reaches",
        drops=8, parallelism=1, num_ul=40, num_dl=80, num_channels=96,
        strategies=("C-HUN", "C-NINT", "R-EPA"), mu_values=(0.5,),
        weight_modes=("SR",)),
    Workload(
        name="mc-epa-p1",
        why="25+25 R-EPA over 3 mu x 2 weight modes, serial: no assignment "
            "calls, so drop generation and record writing dominate",
        drops=400, parallelism=1, num_ul=25, num_dl=25, num_channels=25,
        strategies=("R-EPA",), mu_values=(0.1, 0.5, 0.9),
        weight_modes=("SR", "PL")),
)}


def build_config(harness, workload: Workload, seed: int, out_dir: str,
                 parallelism: int):
    """A validated ExperimentConfig for the workload, via the public API."""
    if workload.canned is not None:
        cfg = harness.canned_experiments(workload.canned, seed=seed,
                                         iterations=workload.drops,
                                         out_dir=out_dir, parallelism=parallelism)
        return harness.require_valid_config(cfg)
    return harness.config_from_dict({
        "name": workload.name,
        "num_ul": workload.num_ul,
        "num_dl": workload.num_dl,
        "num_channels": workload.num_channels,
        "strategies": list(workload.strategies),
        "mu_values": list(workload.mu_values),
        "weight_modes": list(workload.weight_modes),
        "iterations": workload.drops,
        "seed": seed,
        "parallelism": parallelism,
        "out_dir": out_dir,
    })
