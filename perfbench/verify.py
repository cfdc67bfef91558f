"""Offline re-verification and fingerprint of a written curve.txt.

Every row is checked on its own, the way acceptance criterion 5 checks
the spectral run: for KS the residual is evaluated with the phase
anchored at the row's own profile, so the phase row is exactly zero and
every PDE row must be within TOL_RESIDUAL in max-abs; for the circle
|x^2 + lambda^2 - 1| must be within TOL_RESIDUAL.  The curve must also
start at the packaged start point and end outside the parameter window,
which is what a run that exits 0 claims.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CurveCheck:
    ok: bool
    reason: str
    points: int = 0
    arclength: float = 0.0
    dlambda_sign_changes: int = 0
    lambda_end: float = 0.0
    max_residual: float = 0.0
    sha256: str = ""


def _tokens(path: Path) -> list[list[str]]:
    """Whitespace-separated fields of each line, '#' comments stripped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("#", 1)[0].split() for line in lines]


def read_params(path: Path) -> dict[str, str]:
    """KEY value pairs of a parameter file."""
    return {f[0]: f[1] for f in _tokens(path) if len(f) == 2}


def _row_residuals(problem: str, rows: np.ndarray) -> np.ndarray:
    """Max-abs residual of every row, each checked on its own."""
    if problem == "circle":
        return np.abs(rows[:, 0] ** 2 + rows[:, 1] ** 2 - 1.0)
    from arctree.problems import KsConfig, ks_residual

    n = rows.shape[1] - 2
    out = np.empty(rows.shape[0])
    for i, row in enumerate(rows):
        r = ks_residual(KsConfig(n_grid=n, reference_profile=row[:n]), row)
        # Anchored at its own profile, the phase row vanishes exactly.
        out[i] = np.inf if r[n] != 0.0 else float(np.abs(r).max())
    return out


def check_curve(curve: Path, problem: str, params_file: Path, start_file: Path) -> CurveCheck:
    """Re-verify every row of ``curve`` and fingerprint it."""
    params = read_params(params_file)
    tol = float(params["TOL_RESIDUAL"])
    n_dim = int(params["N_DIM"])
    lam = int(params["LAMBDA_INDEX"])
    lo, hi = float(params["LAMBDA_MIN"]), float(params["LAMBDA_MAX"])
    start = np.array([x for f in _tokens(start_file) for x in f], dtype=float)
    try:
        data = curve.read_bytes()
    except OSError as exc:
        return CurveCheck(False, f"unreadable curve: {exc}")
    try:
        rows = np.array([line.split() for line in data.decode().splitlines()], dtype=float)
    except ValueError as exc:
        return CurveCheck(False, f"malformed curve: {exc}")
    if rows.ndim != 2 or rows.shape[0] < 2 or rows.shape[1] != n_dim:
        return CurveCheck(False, f"curve has shape {rows.shape}, want (>=2, {n_dim})")
    if not np.all(np.isfinite(rows)):
        return CurveCheck(False, "curve has non-finite entries")
    residuals = _row_residuals(problem, rows)
    bad = np.flatnonzero(~(residuals <= tol))
    lambdas = rows[:, lam]
    steps = np.diff(lambdas)
    signs = np.sign(steps[steps != 0.0])
    check = CurveCheck(
        ok=True,
        reason="",
        points=rows.shape[0],
        arclength=float(np.linalg.norm(np.diff(rows, axis=0), axis=1).sum()),
        dlambda_sign_changes=int(np.count_nonzero(signs[1:] != signs[:-1])),
        lambda_end=float(lambdas[-1]),
        max_residual=float(residuals.max()),
        sha256=hashlib.sha256(data).hexdigest(),
    )
    if bad.size:
        i = int(bad[0])
        reason = f"row {i + 1}: residual {residuals[i]:.3e} > TOL_RESIDUAL {tol:.3e}"
    elif not np.array_equal(rows[0], start):
        reason = "first row is not the start point"
    elif lo < lambdas[-1] < hi:
        reason = f"last row lambda {lambdas[-1]:.6g} is inside [{lo:g}, {hi:g}]"
    else:
        return check
    return replace(check, ok=False, reason=reason)
