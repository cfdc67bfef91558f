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

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

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
    Newton step is used.  on_accept, when given, is called with each
    accepted point before it is re-verified and emitted, so a problem can
    refresh internal templates such as a phase anchor.
    """

    n_dim: int
    lambda_index: int
    residual: Callable[[Array], Array]
    corrector: Callable[[Array, Array, Array, float], Array] | None = None
    jacobian: Callable[[Array], Array] | None = None
    name: str = ""
    on_accept: Callable[[Array], None] | None = None

    def __post_init__(self) -> None:
        if self.n_dim < 2:
            raise ValueError("n_dim must be at least 2")
        if not 0 <= self.lambda_index < self.n_dim:
            raise ValueError("lambda_index out of range")


def evaluate_residual(problem: ProblemDefinition, z: Array) -> Array:
    """Evaluate F(z), checking shapes and finiteness.

    Dimension mismatches are contract errors (ValueError).  Non-finite
    output raises EvaluationError so callers can fail the affected
    corrector sequence instead of crashing.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.n_dim,):
        raise ValueError(
            f"point has shape {z.shape}, expected ({problem.n_dim},)"
        )
    out = np.asarray(problem.residual(z), dtype=float)
    if out.shape != (problem.n_dim - 1,):
        raise ValueError(
            f"residual has shape {out.shape}, expected ({problem.n_dim - 1},)"
        )
    if not np.all(np.isfinite(out)):
        raise EvaluationError("residual contains non-finite entries")
    return out


def residual_norm(problem: ProblemDefinition, z: Array) -> float:
    """Euclidean norm of the residual at z."""
    return float(np.linalg.norm(evaluate_residual(problem, z)))


def bordered_newton_step(
    problem: ProblemDefinition,
    zeta: Array,
    tangent: Array,
    z_base: Array,
    h: float,
) -> Array:
    """One Newton iteration on the corrector system.

    Solves the square bordered system

        [ F'(zeta) ] d = [ -F(zeta)                      ]
        [ tangent^T ]     [ h - tangent . (zeta - z_base) ]

    and returns zeta + d.  The constraint row keeps the iterate on the
    hyperplane at signed distance h from z_base along tangent, so the
    update is well defined at folds.  Dense LU with partial pivoting; a
    pivot below SINGULAR_PIVOT_RTOL times the largest row norm, or any
    non-finite intermediate, raises CorrectorFailure.
    """
    if problem.jacobian is None:
        raise ValueError("bordered_newton_step requires problem.jacobian")
    zeta = np.asarray(zeta, dtype=float)
    try:
        f = evaluate_residual(problem, zeta)
    except EvaluationError as exc:
        raise CorrectorFailure(str(exc)) from exc
    jac = np.asarray(problem.jacobian(zeta), dtype=float)
    if jac.shape != (problem.n_dim - 1, problem.n_dim):
        raise ValueError(
            f"jacobian has shape {jac.shape}, expected "
            f"({problem.n_dim - 1}, {problem.n_dim})"
        )
    matrix = np.vstack([jac, np.asarray(tangent, dtype=float)])
    gap = h - float(np.dot(tangent, zeta - z_base))
    rhs = np.concatenate([-f, [gap]])
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))):
        raise CorrectorFailure("non-finite bordered system")
    row_scale = float(np.max(np.sum(np.abs(matrix), axis=1)))
    if row_scale == 0.0:
        raise CorrectorFailure("zero bordered matrix")
    with warnings.catch_warnings():
        # scipy warns on exactly singular factors; the pivot check below
        # owns that decision.
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(matrix, check_finite=False)
    if float(np.min(np.abs(np.diag(lu)))) < SINGULAR_PIVOT_RTOL * row_scale:
        raise CorrectorFailure("singular bordered system")
    delta = lu_solve((lu, piv), rhs, check_finite=False)
    out = zeta + delta
    if not np.all(np.isfinite(out)):
        raise CorrectorFailure("non-finite corrector update")
    return out


def corrector_step(
    problem: ProblemDefinition,
    zeta: Array,
    tangent: Array,
    z_base: Array,
    h: float,
) -> Array:
    """Apply one corrector iteration using the problem's stepper.

    Dispatches to the user-supplied corrector when present, otherwise to
    the default bordered Newton step.  Non-finite output from a custom
    stepper is mapped to CorrectorFailure.
    """
    if problem.corrector is None:
        return bordered_newton_step(problem, zeta, tangent, z_base, h)
    out = np.asarray(problem.corrector(zeta, tangent, z_base, h), dtype=float)
    if out.shape != (problem.n_dim,):
        raise ValueError(
            f"corrector returned shape {out.shape}, expected ({problem.n_dim},)"
        )
    if not np.all(np.isfinite(out)):
        raise CorrectorFailure("corrector returned non-finite iterate")
    return out
