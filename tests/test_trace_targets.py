"""Every function the benchmark's tracer wraps must exist in fdsched and
be called through the name it wraps.

perfbench/spans.py names its targets as (module, attribute, layer); a
target that no longer resolves is skipped at run time and only shows up as
trace.absent_targets, so a refactor that moves one is caught here instead.
A target that resolves but is called through another module's name would
keep trace.absent_targets at 0 while its layer metrics lose their samples.
The file is loaded read-only, without importing the perfbench package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fdsched.harness import canned_experiments, run_experiment

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr, layer", _targets())
def test_trace_target_resolves(module, attr, layer):
    fn = getattr(importlib.import_module(f"fdsched.{module}"), attr, None)
    assert callable(fn), f"fdsched.{module}.{attr} (layer {layer}) is gone"


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_every_trace_target_is_called(name, tmp_path, monkeypatch):
    # counting wrappers installed as the tracer installs its timing ones
    calls = {}
    for module, attr, _layer in _targets():
        owner = importlib.import_module(f"fdsched.{module}")
        key = f"{module}.{attr}"
        calls[key] = 0

        def counted(*args, _key=key, _fn=getattr(owner, attr), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    run_experiment(canned_experiments(name, iterations=1, out_dir=str(tmp_path)))
    assert [key for key, n in calls.items() if n == 0] == []
