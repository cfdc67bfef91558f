"""scripts/make_ks_start.py still regenerates the packaged KS start.

The script is not part of the package, so it is loaded by path.  Its
Newton solves use the solver's residual and Jacobian; a change to either
that moves the stationary branch shows up here as a regenerated profile
that no longer matches the packaged one.
"""

import importlib.util
from pathlib import Path

import numpy as np

from arctree import load_ks_fixture

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_ks_start.py"


def load_script():
    spec = importlib.util.spec_from_file_location("make_ks_start", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_regenerates_packaged_profile():
    w = load_script().build_start(128, 0.1828, 8.09)
    z, _ = load_ks_fixture(128)
    # Rounding differs between machines; the branch does not.
    assert np.abs(w - z[:128]).max() <= 1e-9
