"""The benchmark's per-layer trace still finds every function it wraps.

perfbench/layertrace.py rebinds named functions in arctree modules; a
target that no longer resolves is skipped and its metrics silently read
0.  This guard turns such a rename into a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _ in load_targets()]
)
def test_trace_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
