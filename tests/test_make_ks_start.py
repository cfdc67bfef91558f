"""scripts/make_ks_start.py still regenerates the packaged KS start.

The script is not part of the package, so it is loaded by path and its
main is run in-process, writing to a temporary file.  Its Newton solves
use the solver's residual and Jacobian; a change to either that moves
the stationary branch shows up here as a regenerated profile that no
longer matches the packaged one.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from arctree import load_ks_fixture

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_ks_start.py"


def load_script():
    spec = importlib.util.spec_from_file_location("make_ks_start", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_regenerates_packaged_profile(tmp_path, monkeypatch):
    out = tmp_path / "s.txt"
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out", str(out)])
    assert load_script().main() == 0
    header = out.read_text().splitlines()[:3]
    assert [line.startswith("#") for line in header] == [True, True, False]
    written = np.loadtxt(out)
    z, _ = load_ks_fixture(128)
    assert written.shape == z.shape
    assert written[128] == 0.0 and written[129] == 0.1828  # c, lambda
    # Rounding differs between machines; the branch does not.
    assert np.abs(written[:128] - z[:128]).max() <= 1e-9
