"""Golden digests of the canned studies and of a rescoring sweep.

sha256 of records.jsonl, summary.json and the cdf_*.csv files (one digest
over each file's name and bytes, in name order) at 20 drops, seed 1, for:
  fig2, fig3     the canned studies;
  rescoring      25+25 on 25 channels, R-EPA and C-HUN over mu in
                 {0.1, 0.5, 0.9} x SR/PL, so each R-EPA solve is rescored
                 across mu values as well as weight modes.
The canned studies must give the same digests with every stack of
assignment problems solved in lockstep.  A change that claims to keep
behaviour must keep these digests; a change that alters results on
purpose updates them and says why.  The
digests pin floating-point results, so they assume IEEE double arithmetic
with the numpy build the project is tested with.
"""

import hashlib
from pathlib import Path

import pytest

from fdsched.harness import canned_experiments, config_from_dict, run_experiment

GOLDEN = {
    "fig2": {
        "records.jsonl": "5b89b2920a16dd6348814ab7482e6bf84d89a643f25bdca74b3029074f4a9598",
        "summary.json": "3431fc877d2396e0522e326c4a9659e23868f9b7ee92d02c0997f429068cd964",
        "cdf_*.csv": "432912662a43972bba12cb30b9a345e868f67bbce30d407d339409ddc6872d3d",
    },
    "fig3": {
        "records.jsonl": "047c84229ea38d92008cada07ce1c6183934f812b72f0d0fd3f0d1721309d6cd",
        "summary.json": "af9adab2e565225206141d2d761d577e605fb6bfdb993cb3ad0adc6d8e79a283",
        "cdf_*.csv": "ec9d68ccc6b0083c2357e4ac70c978731a97eacba65f3c53da05475ea0a86160",
    },
}


def _digests(out: Path, names) -> dict:
    """sha256 of each named file's bytes; for a glob, of the name and bytes of
    every file it matches, in name order."""
    digests = {}
    for name in names:
        if "*" not in name:
            digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
            continue
        digest = hashlib.sha256()
        for path in sorted(out.glob(name)):
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
        digests[name] = digest.hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canned_outputs_match_golden_digest(name, tmp_path):
    run_experiment(canned_experiments(name, seed=1, iterations=20, out_dir=str(tmp_path)))
    assert _digests(tmp_path, GOLDEN[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canned_outputs_match_golden_digest_in_lockstep(name, tmp_path, monkeypatch):
    # every stack of assignment problems, P-OPT's one-matrix threshold scans
    # included, goes to the lockstep solver: the same digests
    from fdsched import assignment

    stacks = []
    monkeypatch.setattr(assignment, "_LOCKSTEP_MIN_PROBLEMS", 1)
    monkeypatch.setattr(assignment, "_min_cost_assignments",
                        lambda *args, _solve=assignment._min_cost_assignments:
                        stacks.append(len(args[0])) or _solve(*args))
    test_canned_outputs_match_golden_digest(name, tmp_path)
    cfg = canned_experiments(name)   # C-HUN stacks one problem per objective and drop
    assert max(stacks) == 20 * len(cfg.mu_values) * len(cfg.weight_modes)


RESCORING = {
    "records.jsonl": "0a2833d1cd674a0906c0084ff740b0d76c144bdc10de31ef114aa032dc7373a6",
    "summary.json": "5bb0f6ab56ba9eb6fc163bc40ad6e342ce8ff2dbf7f042a05f5ef18b4a1ea250",
    "cdf_*.csv": "8edd9a4499c7389bb4a7693f6a85ff665526b1b246b73d7d0163eba56e3edb45",
}


def test_rescoring_sweep_matches_golden_digest(tmp_path):
    run_experiment(config_from_dict({
        "num_ul": 25, "num_dl": 25, "num_channels": 25, "strategies": ["R-EPA", "C-HUN"],
        "mu_values": [0.1, 0.5, 0.9], "weight_modes": ["SR", "PL"], "iterations": 20,
        "seed": 1, "out_dir": str(tmp_path)}))
    assert _digests(tmp_path, RESCORING) == RESCORING
