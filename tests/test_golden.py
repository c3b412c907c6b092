"""Golden digests of the canned studies.

sha256 of records.jsonl and summary.json for fig2 and fig3 at 20 drops,
seed 1.  A change that claims to keep behaviour must keep these digests;
a change that alters results on purpose updates them and says why.  The
digests pin floating-point results, so they assume IEEE double arithmetic
with the numpy build the project is tested with.
"""

import hashlib

import pytest

from fdsched.harness import canned_experiments, run_experiment

GOLDEN = {
    "fig2": {
        "records.jsonl": "5b89b2920a16dd6348814ab7482e6bf84d89a643f25bdca74b3029074f4a9598",
        "summary.json": "3431fc877d2396e0522e326c4a9659e23868f9b7ee92d02c0997f429068cd964",
    },
    "fig3": {
        "records.jsonl": "047c84229ea38d92008cada07ce1c6183934f812b72f0d0fd3f0d1721309d6cd",
        "summary.json": "af9adab2e565225206141d2d761d577e605fb6bfdb993cb3ad0adc6d8e79a283",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_canned_outputs_match_golden_digest(name, tmp_path):
    run_experiment(canned_experiments(name, seed=1, iterations=20, out_dir=str(tmp_path)))
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in GOLDEN[name]}
    assert digests == GOLDEN[name]
