"""Continuation problems and the bordered Newton corrector.

A continuation problem is an underdetermined system F(z) = 0 where
z is a vector in R^N holding N-1 state components plus one distinguished
continuation parameter.  Its solution set is generically a curve, traced
numerically by predictor steps along a direction and corrector iterations
back onto the curve.  The corrector solves F(zeta) = 0 together with one
scalar constraint pinning zeta to a hyperplane orthogonal to the predictor
direction, which keeps the stepper well posed at folds where the state
Jacobian alone is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, dlange

Array = np.ndarray

# Relative pivot threshold below which the bordered corrector matrix is
# treated as numerically singular.
SINGULAR_PIVOT_RTOL = 1e-14


class EvaluationError(RuntimeError):
    """Residual evaluation produced non-finite values."""


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
    must be a pure function.  When corrector is None the problem must
    supply jacobian (shape (n_dim - 1, n_dim)) and the default bordered
    Newton step is used; a problem with neither raises ValueError when it
    is built.  An anchored problem's residual and jacobian take a second
    argument, z_base: the seed point of the sequence being corrected, or
    z itself when a point is re-verified.  A phase condition reads its
    anchor there, so no problem needs mutable state.
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


def evaluate_residual(
    problem: ProblemDefinition, z: Array, z_base: Array | None = None
) -> Array:
    """Evaluate F(z), checking shapes and finiteness.

    An anchored problem is handed z_base, or z itself when it is None.
    Dimension mismatches are contract errors (ValueError).  Non-finite
    output raises EvaluationError so callers can fail the affected
    corrector sequence instead of crashing.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.n_dim,):
        raise ValueError(
            f"point has shape {z.shape}, expected ({problem.n_dim},)"
        )
    base = (z if z_base is None else z_base,) if problem.anchored else ()
    out = np.asarray(problem.residual(z, *base), dtype=float)
    if out.shape != (problem.n_dim - 1,):
        raise ValueError(
            f"residual has shape {out.shape}, expected ({problem.n_dim - 1},)"
        )
    if not np.isfinite(out).all():
        raise EvaluationError("residual contains non-finite entries")
    return out


def residual_norm(problem: ProblemDefinition, z: Array) -> float:
    """Euclidean norm of the residual at z, anchored at z itself."""
    f = evaluate_residual(problem, z)
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
    """Solve with the factors from lu_factor, overwriting rhs (getrs)."""
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
) -> Array:
    """One Newton iteration on the corrector system.

    Solves the square bordered system

        [ F'(zeta) ] d = [ -F(zeta)                      ]
        [ tangent^T ]     [ h - tangent . (zeta - z_base) ]

    and returns zeta + d.  The constraint row keeps the iterate on the
    hyperplane at signed distance h from z_base along tangent, so the
    update is well defined at folds.  f is F(zeta), as returned by
    evaluate_residual at base z_base; the step never evaluates it.
    Dense LU with partial pivoting; a pivot below SINGULAR_PIVOT_RTOL
    times the largest row norm, or any non-finite intermediate, raises
    CorrectorFailure.
    """
    zeta = np.asarray(zeta, dtype=float)
    n = problem.n_dim
    base = (z_base,) if problem.anchored else ()
    jac = np.asarray(problem.jacobian(zeta, *base), dtype=float)
    if jac.shape != (n - 1, n):
        raise ValueError(
            f"jacobian has shape {jac.shape}, expected ({n - 1}, {n})"
        )
    matrix = np.empty((n, n), order="F")
    matrix[:-1] = jac
    matrix[-1] = tangent
    gap = h - float(np.dot(tangent, zeta - z_base))
    # The largest absolute row sum (LAPACK lange, no temporaries); a NaN
    # or infinite entry makes it non-finite.
    row_scale = float(dlange("I", matrix))
    if not (math.isfinite(row_scale) and math.isfinite(gap)):
        raise CorrectorFailure("non-finite bordered system")
    if row_scale == 0.0:
        raise CorrectorFailure("zero bordered matrix")
    lu, piv = lu_factor(matrix)
    if float(np.abs(lu.diagonal()).min()) < SINGULAR_PIVOT_RTOL * row_scale:
        raise CorrectorFailure("singular bordered system")
    rhs = np.empty(n)
    np.negative(f, out=rhs[:-1])
    rhs[-1] = gap
    out = lu_solve((lu, piv), rhs)
    out += zeta
    if not np.isfinite(out).all():
        raise CorrectorFailure("non-finite corrector update")
    return out


def corrector_step(
    problem: ProblemDefinition,
    zeta: Array,
    tangent: Array,
    z_base: Array,
    h: float,
    f: Array,
) -> Array:
    """Apply one corrector iteration using the problem's stepper.

    Dispatches to the user-supplied corrector when present, called as
    (zeta, tangent, z_base, h), otherwise to the default bordered Newton
    step, which is handed f = F(zeta).  Non-finite output from a custom
    stepper is mapped to CorrectorFailure.
    """
    if problem.corrector is None:
        return bordered_newton_step(problem, zeta, tangent, z_base, h, f)
    out = np.asarray(problem.corrector(zeta, tangent, z_base, h), dtype=float)
    if out.shape != (problem.n_dim,):
        raise ValueError(
            f"corrector returned shape {out.shape}, expected ({problem.n_dim},)"
        )
    if not np.all(np.isfinite(out)):
        raise CorrectorFailure("corrector returned non-finite iterate")
    return out
