"""Continuation problems and the bordered Newton corrector.

A continuation problem is an underdetermined system F(z) = 0 where
z is a vector in R^N holding N-1 state components plus one distinguished
continuation parameter.  Its solution set is generically a curve, traced
numerically by predictor steps along a direction and corrector iterations
back onto the curve.  The corrector solves F(zeta) = 0 together with one
scalar constraint pinning zeta to a hyperplane orthogonal to the predictor
direction, which keeps the stepper well posed at folds where the state
Jacobian alone is singular.

The corrector calls two LAPACK routines, getrf and getrs, through
scipy's f2py wrappers.  Importing them from scipy.linalg runs the whole
package's set-up (it pulls in numpy.f2py, numpy.testing,
numpy.ma and numpy.random), about 0.3 s of a 0.55 s
``import arctree.cli`` on a 2-core host, so the extension module that
holds them, scipy.linalg._flapack, is loaded on its own instead (see
_load_flapack), at import of this module.  They are the same wrappers
calling the same OpenBLAS, so every result is the same.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

Array = np.ndarray


def _load_flapack() -> ModuleType:
    """scipy's f2py LAPACK wrappers, without running scipy.linalg's set-up.

    The module scipy.linalg._flapack is reused when it is already
    imported.  Otherwise its file is looked up beside scipy's (found by
    find_spec, which imports nothing) and loaded under its own name, so
    a later import of scipy.linalg reuses it too.  Where no such file is
    found or it does not load (another layout, or a platform that needs
    scipy's own set-up first), the routines come from scipy.linalg.lapack.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = find_spec("scipy")
    paths = [
        Path(directory, "linalg", "_flapack" + suffix)
        for directory in (spec and spec.submodule_search_locations) or ()
        for suffix in EXTENSION_SUFFIXES
    ]
    path = next((p for p in paths if p.is_file()), None)
    if path is not None:
        loader = ExtensionFileLoader(name, str(path))
        try:
            module = module_from_spec(spec_from_loader(name, loader))
            loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules[name] = module
            return module
    from scipy.linalg import lapack

    return lapack


_flapack = _load_flapack()
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs


# Pivot threshold, relative to the largest pivot, at or below which the
# bordered corrector matrix is treated as numerically singular.
SINGULAR_PIVOT_RTOL = 1e-14


class EvaluationError(RuntimeError):
    """A non-finite residual, or one above tol_residual at re-verification
    (emit_point): past the start, a run ends there in EVALUATION_FAILURE.
    """


class CorrectorFailure(RuntimeError):
    """A corrector step could not be completed.

    Raised on singular bordered systems or non-finite arithmetic.  Callers
    treat the corrector sequence as diverging; this is a step-failure
    signal, never a crash.
    """


@dataclass
class CurvePoint:
    """One accepted point on the numerical solution curve."""

    z: Array
    residual_norm: float


@dataclass
class ProblemDefinition:
    """Bundle describing one continuation problem.

    residual maps z (length n_dim) to the residual vector (length
    n_dim - 1).  corrector, when given, applies a single corrector
    iteration with signature (zeta, tangent, z_base, h) -> new zeta and
    must be a pure function; engine.step calls it holding its turn, so a
    round calls it one node at a time.  When corrector is None the
    problem must supply jacobian (shape (n_dim - 1, n_dim)) and the
    default bordered Newton step is used; a problem with neither raises
    ValueError when it is built.  An anchored problem's residual and
    jacobian take a second argument, z_base: the seed point of the
    sequence being corrected, or z itself when a point is re-verified.
    A phase condition reads its anchor there, so no problem needs
    mutable state.
    """

    n_dim: int
    lambda_index: int
    residual: Callable[..., Array]
    corrector: Callable[[Array, Array, Array, float], Array] | None = None
    jacobian: Callable[..., Array] | None = None
    anchored: bool = False

    def __post_init__(self) -> None:
        if self.n_dim < 2:
            raise ValueError("n_dim must be at least 2")
        if not 0 <= self.lambda_index < self.n_dim:
            raise ValueError("lambda_index out of range")
        if self.corrector is None and self.jacobian is None:
            raise ValueError("a problem needs a jacobian or a corrector")


def _shaped(value: object, shape: tuple[int, ...], what: str) -> Array:
    """value as a float array, or ValueError("<what> <shape>, expected <shape>")."""
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{what} {out.shape}, expected {shape}")
    return out


def evaluate_residual(problem: ProblemDefinition, z: Array, z_base: Array) -> Array:
    """Evaluate F(z), checking the output's shape and finiteness.

    z is a float array of n_dim entries: a run checks its start once
    (engine.check_inputs) and builds every later point itself.  An
    anchored problem is handed z_base.  A residual of the wrong shape is
    a ValueError, a non-finite one an EvaluationError, so callers can
    fail the sequence, not crash.
    """
    base = (z_base,) if problem.anchored else ()
    out = _shaped(
        problem.residual(z, *base), (problem.n_dim - 1,), "residual has shape"
    )
    if not np.isfinite(out).all():
        raise EvaluationError("residual contains non-finite entries")
    return out


def residual_norm(problem: ProblemDefinition, z: Array) -> float:
    """Euclidean norm of the residual at z, anchored at z itself."""
    f = evaluate_residual(problem, z, z)
    return math.sqrt(f.dot(f))


def lu_factor(matrix: Array) -> tuple[Array, Array]:
    """LU factors of a square Fortran-order float matrix, overwriting it.

    LAPACK getrf with partial pivoting, the routine behind
    scipy.linalg.lu_factor; an exactly zero pivot is left for the caller
    to judge.
    """
    lu, piv, _ = dgetrf(matrix, overwrite_a=True)
    return lu, piv


def lu_solve(factors: tuple[Array, Array], rhs: Array) -> Array:
    """Solve with the factors from lu_factor, overwriting rhs (getrs).

    scipy's getrs shifts piv in place during the call, so workers must
    never share a factorization: each corrector step factors its own.
    """
    lu, piv = factors
    x, _ = dgetrs(lu, piv, rhs, overwrite_b=True)
    return x


def bordered_newton_step(
    problem: ProblemDefinition,
    zeta: Array,
    tangent: Array,
    z_base: Array,
    h: float,
    f: Array,
    turn: threading.Lock,
) -> Array:
    """One Newton iteration on the corrector system.

    Solves the square bordered system

        [ F'(zeta) ] d = [ -F(zeta)                      ]
        [ tangent^T ]     [ h - tangent . (zeta - z_base) ]

    and returns zeta + d.  The constraint row keeps the iterate on the
    hyperplane at signed distance h from z_base along tangent, so the
    update is well defined at folds.  f is F(zeta), as returned by
    evaluate_residual at base z_base; the step never evaluates it.
    Dense LU with partial pivoting, judged by its own pivots: a pivot at
    or below SINGULAR_PIVOT_RTOL times the largest one raises
    CorrectorFailure("singular bordered system"), which catches an
    all-zero matrix and an infinite pivot.  Any other NaN or infinity, in
    the Jacobian, the tangent or the gap, reaches the update, which
    corrector_step judges.  turn is a lock the caller holds: it is let
    go for the factorization alone, which runs without the GIL, and
    taken back before anything else, also when getrf raises (see
    engine.corrector_round).
    """
    n = problem.n_dim
    base = (z_base,) if problem.anchored else ()
    jac = _shaped(problem.jacobian(zeta, *base), (n - 1, n), "jacobian has shape")
    matrix = np.empty((n, n), order="F")
    matrix[:-1] = jac
    matrix[-1] = tangent
    turn.release()
    try:
        lu, piv = lu_factor(matrix)
    finally:
        turn.acquire()
    pivots = np.abs(lu.diagonal())
    if pivots.min() <= SINGULAR_PIVOT_RTOL * pivots.max():
        raise CorrectorFailure("singular bordered system")
    rhs = np.empty(n)
    np.negative(f, out=rhs[:-1])
    rhs[-1] = h - float(np.dot(tangent, zeta - z_base))
    out = lu_solve((lu, piv), rhs)
    out += zeta
    return out


def corrector_step(
    problem: ProblemDefinition,
    zeta: Array,
    tangent: Array,
    z_base: Array,
    h: float,
    f: Array,
    turn: threading.Lock,
) -> Array:
    """Apply one corrector iteration using the problem's stepper.

    Dispatches to the user-supplied corrector when present, called as
    (zeta, tangent, z_base, h), otherwise to the default bordered Newton
    step, which is handed f = F(zeta) and the turn the caller holds.
    The one judge of either stepper's output: a non-finite iterate
    raises CorrectorFailure("non-finite corrector update").
    """
    if problem.corrector is None:
        out = bordered_newton_step(problem, zeta, tangent, z_base, h, f, turn)
    else:
        out = _shaped(
            problem.corrector(zeta, tangent, z_base, h), (problem.n_dim,),
            "corrector returned shape",
        )
    if not np.isfinite(out).all():
        raise CorrectorFailure("non-finite corrector update")
    return out
