"""Every function the benchmark's tracer wraps must exist in fdsched.

perfbench/spans.py names its targets as (module, attribute, layer); a
target that no longer resolves is skipped at run time and only shows up as
trace.absent_targets, so a refactor that moves one is caught here instead.
The file is loaded read-only, without importing the perfbench package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
